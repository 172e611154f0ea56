"""The columnar assay against its scalar definitions.

* The vectorized probe x target mismatch matrix equals
  ``DnaSequence.mismatches_against`` for every pair (generated cases).
* ``MicroarrayAssay.run`` equals, with exact float equality on every
  ``SiteResult`` field, a per-site reference that solves each site on
  its own with the scalar chemistry calls — the assay's former
  implementation, kept here as the oracle.
* A Runner dose sweep builds the mismatch matrix once per layout.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaigns import CampaignSpec, run_campaign
from repro.dna import (
    AssayProtocol,
    DnaSequence,
    MicroarrayAssay,
    Probe,
    ProbeLayout,
    Sample,
    SiteResult,
    Target,
    perfect_target_for,
)
from repro.dna import assay as assay_module
from repro.dna.sequences import mismatch_matrix
from repro.electrochem.diffusion import surface_concentration_quasi_static
from repro.electrochem.redox_cycling import RedoxCyclingSensor
from repro.experiments import DnaAssaySpec

BASES = "ACGT"


# ---------------------------------------------------------------------------
# Mismatch matrix: generated differential test
# ---------------------------------------------------------------------------
def _assert_matrix_matches_oracle(probes: list[str], regions: list[str]) -> None:
    probe_seqs = [DnaSequence(p) for p in probes]
    region_seqs = [DnaSequence(r) for r in regions]
    matrix = mismatch_matrix(probe_seqs, region_seqs)
    assert matrix.shape == (len(probes), len(regions))
    assert matrix.dtype == np.int64
    for i, probe in enumerate(probe_seqs):
        for j, region in enumerate(region_seqs):
            assert matrix[i, j] == region.mismatches_against(probe), (probes[i], regions[j])


@st.composite
def panels(draw):
    """Probes of 5-60 bases and target regions shorter than, as long as,
    or longer than one of them, each built around a (possibly mutated)
    probe complement so low mismatch counts are common."""
    dna = st.text(alphabet=BASES, min_size=1, max_size=60)
    probes = draw(
        st.lists(st.text(alphabet=BASES, min_size=5, max_size=60), min_size=1, max_size=5)
    )
    regions = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        core = list(str(DnaSequence(draw(st.sampled_from(probes))).reverse_complement()))
        for position in draw(st.lists(st.integers(0, len(core) - 1), max_size=4)):
            core[position] = draw(st.sampled_from(BASES))
        shape = draw(st.sampled_from(["shorter", "equal", "longer", "unrelated"]))
        if shape == "shorter":
            start = draw(st.integers(0, len(core) - 1))
            stop = draw(st.integers(start + 1, len(core)))
            if stop - start == len(core):
                stop -= 1
            core = core[start:stop] or core[:1]
        elif shape == "longer":
            core = list(draw(st.text(alphabet=BASES, max_size=40))) + core
            core += list(draw(dna))
        elif shape == "unrelated":
            core = list(draw(dna))
        regions.append("".join(core))
    return probes, regions


class TestMismatchMatrix:
    @given(panels())
    @settings(max_examples=200, deadline=None)
    # Pinned edge cases: a one-base region, a probe one base longer than
    # its region, a probe exactly as long, and a region holding the
    # perfect complement twice.
    @example((["ACGTA"], ["T"]))
    @example((["ACGTAC"], ["GTACG"]))
    @example((["AAAAA", "ACGTT"], ["AACGT", "TTTTT"]))
    @example((["ACGTACGTAC"], ["GTACGTACGTGTACGTACGT"]))
    def test_equals_scalar_oracle(self, panel):
        probes, regions = panel
        _assert_matrix_matches_oracle(probes, regions)

    def test_mixed_probe_lengths_keep_row_order(self, rng):
        probes = [str(DnaSequence.random(n, rng)) for n in (20, 5, 60, 20, 33)]
        regions = [str(DnaSequence(p).reverse_complement()) for p in probes]
        regions += [str(DnaSequence.random(n, rng)) for n in (4, 20, 90)]
        _assert_matrix_matches_oracle(probes, regions)

    def test_empty_panels(self):
        assert mismatch_matrix([], [DnaSequence("ACGT")]).shape == (0, 1)
        assert mismatch_matrix([DnaSequence("ACGTA")], []).shape == (1, 0)


# ---------------------------------------------------------------------------
# Assay parity: the per-site reference
# ---------------------------------------------------------------------------
def _reference_run(assay: MicroarrayAssay, sample: Sample, protocol=None) -> list[SiteResult]:
    """Every site solved on its own, with the scalar chemistry calls."""
    protocol = protocol or AssayProtocol()
    return [
        _reference_site(assay, assay.layout.spot(row, col), sample, protocol)
        for row, col in assay.layout.all_positions()
    ]


def _reference_site(assay, spot, sample, protocol) -> SiteResult:
    if spot.probe is None or spot.probe_density <= 0:
        return SiteResult(
            row=spot.row, col=spot.col, probe_name="",
            best_match_mismatches=99,
            occupancy_after_hybridization=0.0,
            occupancy_after_wash=0.0,
            bound_density=0.0,
            surface_concentration=0.0,
            sensor_current=assay.sensor.current(0.0),
        )
    probe = spot.probe
    binders = _reference_binders(probe, sample, protocol)
    theta_hyb, theta_wash, best_mm = _reference_occupancy(assay, probe, binders, protocol)
    bound_density = theta_wash * spot.probe_density
    flux = assay.labelled_surface.product_flux(bound_density)
    concentration = surface_concentration_quasi_static(
        flux,
        protocol.boundary_layer_m,
        assay.labelled_surface.label.product.diffusion_coefficient,
    )
    return SiteResult(
        row=spot.row, col=spot.col, probe_name=probe.name,
        best_match_mismatches=best_mm,
        occupancy_after_hybridization=theta_hyb,
        occupancy_after_wash=theta_wash,
        bound_density=bound_density,
        surface_concentration=concentration,
        sensor_current=assay.sensor.current(concentration),
    )


def _reference_binders(probe, sample, protocol):
    binders = []
    for target, concentration in sample.contents.items():
        if concentration <= 0:
            continue
        mismatches = target.mismatches_with(probe)
        if mismatches <= protocol.max_cross_mismatches:
            binders.append((target, concentration, mismatches))
    return binders


def _reference_occupancy(assay, probe, binders, protocol):
    if not binders:
        return 0.0, 0.0, 99
    best_mm = min(mm for _, _, mm in binders)
    theta_hyb_total = 0.0
    theta_wash_total = 0.0
    singles = []
    for target, concentration, mismatches in binders:
        theta = assay.kinetics.occupancy_after(
            protocol.hybridization_s,
            concentration,
            mismatches,
            0.0,
            len(probe.sequence),
            target.length,
        )
        singles.append((theta, mismatches))
    total = sum(theta for theta, _ in singles)
    scale = 1.0 if total <= 1.0 else 1.0 / total
    for theta, mismatches in singles:
        theta_scaled = theta * scale
        theta_hyb_total += theta_scaled
        theta_wash_total += assay.kinetics.occupancy_after_wash(
            protocol.wash_s, mismatches, theta_scaled
        )
    return min(theta_hyb_total, 1.0), min(theta_wash_total, 1.0), best_mm


def _assert_exact_parity(assay: MicroarrayAssay, sample: Sample, protocol=None):
    result = assay.run(sample, protocol)
    expected = _reference_run(assay, sample, protocol)
    assert len(result.sites) == len(expected)
    for got, want in zip(result.sites, expected):
        for field in dataclasses.fields(SiteResult):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert type(a) is type(b), (field.name, got, want)
            assert a == b, (field.name, got, want)
    # The columns, the map and the lookups agree with the site list.
    currents = np.array([s.sensor_current for s in expected])
    assert np.array_equal(result.current_map(), currents.reshape(result.rows, result.cols))
    last = expected[-1]
    assert result.site_at(last.row, last.col) == last
    return result


def _mismatch_panel(rng, counts=(1, 2, 3, 5), **tiled):
    region = DnaSequence.random(20, rng)
    perfect = region.reverse_complement()
    probes = [Probe("match-0mm", perfect)]
    probes += [Probe(f"mismatch-{n}mm", perfect.with_mismatches(n, rng)) for n in counts]
    layout = ProbeLayout.tiled(probes, **tiled)
    return layout, Target("reference-target", region, total_length=2000)


class TestAssayParity:
    def test_random_panel(self):
        layout = ProbeLayout.random_panel(16, rows=16, cols=8, replicates=8, rng=5)
        sample = Sample.for_probes(layout.probes(), 3e-6, subset=[0, 1, 2, 3])
        result = _assert_exact_parity(MicroarrayAssay(layout), sample)
        assert len(result.match_sites()) == 32

    def test_mismatch_panel(self, rng):
        layout, target = _mismatch_panel(rng, rows=16, cols=8, replicates=8)
        result = _assert_exact_parity(MicroarrayAssay(layout), Sample({target: 1e-5}))
        assert sorted({s.best_match_mismatches for s in result.sites}) == [0, 1, 2, 3, 5, 99]

    def test_bare_control_spots(self, rng):
        probes = [Probe(f"p{i}", DnaSequence.random(20, rng)) for i in range(6)]
        layout = ProbeLayout.tiled(probes, rows=8, cols=8, replicates=7, control_every=5)
        result = _assert_exact_parity(MicroarrayAssay(layout), Sample.for_probes(probes, 1e-6))
        assert sum(1 for s in result.sites if not s.probe_name) > 12

    def test_sensor_bias_off(self, rng):
        layout, target = _mismatch_panel(rng, rows=4, cols=8, replicates=4, control_every=6)
        assay = MicroarrayAssay(layout, sensor=RedoxCyclingSensor(bias_ok=False))
        result = _assert_exact_parity(assay, Sample({target: 1e-5}))
        assert set(result.sensor_current.tolist()) == {assay.sensor.background_current}

    def test_zero_concentration_target(self, probes_20):
        layout = ProbeLayout.tiled(probes_20, rows=4, cols=4, replicates=4)
        sample = Sample.for_probes(probes_20, 1e-6, subset=[0, 1])
        sample.add(perfect_target_for(probes_20[2], total_length=500), 0.0)
        result = _assert_exact_parity(MicroarrayAssay(layout), sample)
        assert result.site_at(2, 0).best_match_mismatches == 99

    def test_competing_targets(self, rng):
        probe = Probe("p", DnaSequence.random(20, rng))
        t1 = perfect_target_for(probe, name="t1")
        t2 = Target("t2", probe.sequence.reverse_complement().with_mismatches(1, rng))
        layout = ProbeLayout.tiled([probe], rows=2, cols=2, replicates=4)
        result = _assert_exact_parity(MicroarrayAssay(layout), Sample({t1: 1.0, t2: 1.0}))
        assert all(s.occupancy_after_hybridization <= 1.0 for s in result.sites)

    def test_per_spot_densities(self, probes_20):
        layout = ProbeLayout.tiled(probes_20, rows=4, cols=4, replicates=4)
        layout.assign(0, 1, probes_20[0], density=1.5e16)
        layout.assign(1, 2, probes_20[1], density=7.25e15)
        layout.assign(2, 3, probes_20[2], density=0.0)  # counts as bare
        layout.assign(3, 0, probes_20[3], density=-1.0)  # counts as bare
        result = _assert_exact_parity(MicroarrayAssay(layout), Sample.for_probes(probes_20, 1e-6))
        assert result.site_at(2, 3).probe_name == ""
        assert result.site_at(0, 1).bound_density != result.site_at(0, 0).bound_density

    def test_targets_above_max_cross_mismatches(self, rng):
        layout, target = _mismatch_panel(rng, counts=(1, 2, 3, 4, 6, 8), rows=4, cols=7, replicates=4)
        background = Sample.random_background(5, 1e-6, length=24, rng=rng)
        sample = Sample({target: 1e-5}).merged_with(background)
        protocol = AssayProtocol(max_cross_mismatches=2)
        result = _assert_exact_parity(MicroarrayAssay(layout), sample, protocol)
        assert {s.best_match_mismatches for s in result.sites} == {0, 1, 2, 99}

    def test_one_assay_object_across_doses_and_compositions(self, probes_20):
        layout = ProbeLayout.tiled(probes_20, rows=4, cols=4, replicates=4)
        assay = MicroarrayAssay(layout)
        for concentration in (1e-8, 1e-6, 1e-4):
            _assert_exact_parity(assay, Sample.for_probes(probes_20, concentration, subset=[0]))
            _assert_exact_parity(assay, Sample.for_probes(probes_20, concentration))
        # The layout changing under the assay object is seen, not memoized.
        layout.assign(0, 0, probes_20[3])
        _assert_exact_parity(assay, Sample.for_probes(probes_20, 1e-6))

    def test_negative_density_column_check(self, probes_20):
        layout = ProbeLayout.tiled(probes_20, rows=2, cols=2)
        assay = MicroarrayAssay(layout)
        with pytest.raises(ValueError, match="bound target density"):
            assay.labelled_surface.product_flux(np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="flux"):
            surface_concentration_quasi_static(np.array([-1.0]), 50e-6, 1e-9)
        with pytest.raises(ValueError, match="concentration"):
            assay.sensor.current(np.array([0.0, -1e-9]))


@pytest.fixture
def probes_20(rng):
    return [Probe(f"p{i}", DnaSequence.random(20, rng)) for i in range(4)]


# ---------------------------------------------------------------------------
# Memoization through the Runner's layout cache
# ---------------------------------------------------------------------------
def test_dose_sweep_builds_one_mismatch_matrix_per_replicate_layout(monkeypatch):
    calls = []
    original = assay_module.mismatch_matrix

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(assay_module, "mismatch_matrix", counted)
    campaign = CampaignSpec(
        base=DnaAssaySpec(probe_count=4, replicates=4, target_subset=(0, 1)),
        grid={"concentration": (1e-7, 1e-6, 1e-5, 1e-4)},
        replicates=2,
        name="dose-sweep",
    )
    result = run_campaign(campaign, seed=3)
    assert len(result.results()) == 8
    assert len(calls) == 2
