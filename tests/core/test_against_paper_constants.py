"""Cross-checks against every number the paper states in prose.

The introduction and body quote many derived figures; this module pins
each one to the code that produces it, so a regression that silently
shifts the model away from the paper fails loudly.
"""

import pytest

from repro.core.config import MirzaConfig
from repro.params import (
    AboTimings,
    DramTimings,
    MitigationCosts,
    max_acts_per_bank_per_trefw,
    ns,
)
from repro.security.analysis import acts_per_ref_interval
from repro.security.area import AreaModel, mirza_storage_bytes_per_bank
from repro.security.mint_model import mint_tolerated_trhd


class TestIntroductionClaims:
    def test_196_bytes_per_bank_at_1k(self):
        """'MIRZA requires a storage overhead of only 196 bytes of
        SRAM per bank' (abstract)."""
        assert MirzaConfig.paper_config(1000).storage_bytes_per_bank \
            == 196

    def test_45x_lower_area_than_prac(self):
        """'Compared to PRAC, MIRZA has 45x lower area overheads.'"""
        config = MirzaConfig.paper_config(1000)
        ratio = AreaModel().prac_to_mirza_ratio(
            1000, config.num_regions, config.fth)
        assert ratio == pytest.approx(45, rel=0.05)

    def test_mirza_mitigation_reduction_28x_at_paper_escape(self):
        """'MIRZA reduces the mitigation overheads by 28.5x' -- using
        the paper's own escape probability of 1/114 at TRHD=1K."""
        mint_rate = 1 / 48
        mirza_rate = (1 / 114) / 12
        assert mint_rate / mirza_rate == pytest.approx(28.5, rel=0.01)


class TestSectionII:
    def test_mitigation_takes_280ns_ref_410ns(self):
        """'mitigating a row takes 280ns and REF time is 410ns'."""
        assert MitigationCosts().mitigation_time == ns(280)
        assert DramTimings().tRFC == ns(410)

    def test_mint_75_tolerates_1500(self):
        """'MINT can tolerate a threshold of 1.5K if one aggressor row
        is mitigated at every REF' (window ~75)."""
        assert mint_tolerated_trhd(75) == pytest.approx(1500, rel=0.03)

    def test_abo_latency_530ns_with_350_stall(self):
        """'The latency of ALERT is 530ns, out of which DRAM is
        unavailable for 350ns.'"""
        abo = AboTimings()
        assert abo.latency == ns(530)
        assert abo.stall == ns(350)


class TestSectionIV:
    def test_worst_case_621k_acts_per_bank(self):
        """'for every tREFW, we can get 621K activations per bank'."""
        assert max_acts_per_bank_per_trefw() == pytest.approx(
            621_000, rel=0.01)

    def test_channel_ceiling_8_8m(self):
        """Footnote 2: 'a channel can perform a maximum of 8.8 Million
        activations per tREFW'."""
        t = DramTimings()
        usable = t.tREFW - t.refs_per_trefw * t.tRFC
        assert usable * 4 // t.tFAW == pytest.approx(8_800_000, rel=0.12)

    def test_128_counters_of_11_bits_176_bytes(self):
        """'128 counters of 11 bits, so 176 bytes per bank' (the RCT
        alone, before the queue overhead)."""
        assert 128 * 11 / 8 == 176
        assert mirza_storage_bytes_per_bank(128, 1500) == 176 + 20


class TestSectionV:
    def test_mint_w_must_cover_abo_acts(self):
        """Section V-D: 'This constraint is satisfied if MINT-W >= 4'
        -- every paper configuration respects it."""
        for trhd in (500, 1000, 2000):
            config = MirzaConfig.paper_config(trhd)
            assert config.mint_window >= \
                AboTimings().acts_between_alerts

    def test_refresh_needs_64_refs_per_subarray(self):
        """'To refresh a subarray with 1K rows, we need 64 REFs.'"""
        from repro.params import DramGeometry
        g = DramGeometry()
        assert g.rows_per_subarray // g.rows_per_ref == 64

    def test_about_76_acts_between_refs(self):
        """Table II derivation: ~75 ACTs fit between REF commands."""
        assert acts_per_ref_interval() == 75


class TestSectionVI:
    def test_overall_selection_1_in_1200(self):
        """'MINT receives only 1/100 ACTs ... selects only 1/12 (so,
        overall, 1 out of 1200)' -- the default-setting arithmetic."""
        escape = 1 / 100
        selection = 1 / 12
        assert 1 / (escape * selection) == pytest.approx(1200)

    def test_q_plus_7_worst_case(self):
        """Figure 10: 'C can get QTH+7 ACTs'."""
        from repro.security.mirza_model import abo_extra_acts
        assert abo_extra_acts() == 7
