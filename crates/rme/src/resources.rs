//! FPGA resource estimation (the model behind Table 2).
//!
//! We cannot run Vivado synthesis in this environment, so Table 2 is
//! reproduced with an analytical area model: each engine module contributes
//! LUTs/FFs proportional to its structural parameters, and BRAM usage is
//! dominated by the Data and Metadata SPMs. The per-module constants are
//! calibrated so that the default MLP configuration lands on the paper's
//! reported utilisation (LUT 2.78 %, FF 0.68 %, BRAM 60.69 %, DSP 0.08 % of
//! a ZCU102), and the model then extrapolates to other configurations — the
//! "more fetch units / smaller boards" discussion of Section 6.4.

use relmem_sim::RmeHwConfig;

use crate::revision::HwRevision;

/// Total resources of the ZCU102's XCZU9EG device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceCapacity {
    /// Look-up tables.
    pub luts: u64,
    /// Flip-flops.
    pub ffs: u64,
    /// 36 Kb block RAMs.
    pub bram36: u64,
    /// DSP slices.
    pub dsps: u64,
}

impl DeviceCapacity {
    /// The ZCU102 development board (XCZU9EG).
    pub fn zcu102() -> Self {
        DeviceCapacity {
            luts: 274_080,
            ffs: 548_160,
            bram36: 912,
            dsps: 2_520,
        }
    }

    /// The much smaller Zybo Z7-10 (XC7Z010) the paper mentions as a
    /// possible low-end target.
    pub fn zybo_z7_10() -> Self {
        DeviceCapacity {
            luts: 17_600,
            ffs: 35_200,
            bram36: 60,
            dsps: 80,
        }
    }
}

/// Absolute resource usage of one engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaUsage {
    /// Look-up tables used.
    pub luts: u64,
    /// Flip-flops used.
    pub ffs: u64,
    /// 36 Kb BRAM blocks used.
    pub bram36: u64,
    /// DSP slices used.
    pub dsps: u64,
}

/// Utilisation report: usage as a percentage of a device's capacity
/// (Table 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaReport {
    /// Absolute usage.
    pub usage: AreaUsage,
    /// LUT utilisation in percent.
    pub lut_pct: f64,
    /// FF utilisation in percent.
    pub ff_pct: f64,
    /// BRAM utilisation in percent.
    pub bram_pct: f64,
    /// DSP utilisation in percent.
    pub dsp_pct: f64,
}

impl AreaReport {
    /// Whether the design fits the device at all.
    pub fn fits(&self) -> bool {
        self.lut_pct <= 100.0
            && self.ff_pct <= 100.0
            && self.bram_pct <= 100.0
            && self.dsp_pct <= 100.0
    }
}

/// Estimates the absolute resource usage of an engine configuration.
pub fn estimate_usage(cfg: &RmeHwConfig, revision: HwRevision) -> AreaUsage {
    // BRAM: a 36 Kb block holds 4 KiB; the Data SPM is dual-ported (one
    // write port fed by the Fetch Units, one read port towards the Trapper),
    // which on UltraScale+ costs roughly 10 % extra blocks for banking.
    let data_blocks = (cfg.data_spm_bytes as u64).div_ceil(4 * 1024);
    let data_blocks = data_blocks + data_blocks / 10;
    let meta_blocks = (cfg.metadata_spm_bytes as u64).div_ceil(4 * 1024);
    // Each Fetch Unit keeps per-outstanding-transaction reorder/landing
    // buffers of one bus word each; they are small but become BRAM once the
    // outstanding count grows.
    let fifo_blocks = (cfg.fetch_units as u64 * revision.outstanding_reads() as u64).div_ceil(16);
    let bram36 = data_blocks + meta_blocks + fifo_blocks;

    // Logic: fixed control (Trapper + Monitor Bypass + configuration port) +
    // per-fetch-unit data path + per-outstanding-transaction tracking +
    // per-column configuration decoding.
    let base_luts = 2_600u64;
    let per_unit_luts = 950u64;
    let per_outstanding_luts = 18u64;
    let per_column_luts = 35u64;
    let luts = base_luts
        + per_unit_luts * cfg.fetch_units as u64
        + per_outstanding_luts * (cfg.fetch_units * revision.outstanding_reads()) as u64
        + per_column_luts * cfg.max_columns as u64;

    let base_ffs = 1_400u64;
    let per_unit_ffs = 520u64;
    let per_outstanding_ffs = 9u64;
    let ffs = base_ffs
        + per_unit_ffs * cfg.fetch_units as u64
        + per_outstanding_ffs * (cfg.fetch_units * revision.outstanding_reads()) as u64;

    // The address arithmetic of equations (1)–(6) maps to two DSP slices.
    let dsps = 2;

    AreaUsage {
        luts,
        ffs,
        bram36,
        dsps,
    }
}

/// Estimates utilisation of `device` for an engine configuration — the
/// reproduction of Table 2.
pub fn estimate_area(
    cfg: &RmeHwConfig,
    revision: HwRevision,
    device: DeviceCapacity,
) -> AreaReport {
    let usage = estimate_usage(cfg, revision);
    let pct = |used: u64, total: u64| 100.0 * used as f64 / total as f64;
    AreaReport {
        usage,
        lut_pct: pct(usage.luts, device.luts),
        ff_pct: pct(usage.ffs, device.ffs),
        bram_pct: pct(usage.bram36, device.bram36),
        dsp_pct: pct(usage.dsps, device.dsps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mlp_matches_table_2_within_tolerance() {
        let report = estimate_area(
            &RmeHwConfig::default(),
            HwRevision::Mlp,
            DeviceCapacity::zcu102(),
        );
        // Paper: LUT 2.78 %, FF 0.68 %, BRAM 60.69 %, DSP 0.08 %.
        assert!(
            (report.lut_pct - 2.78).abs() < 0.5,
            "LUT {}",
            report.lut_pct
        );
        assert!((report.ff_pct - 0.68).abs() < 0.2, "FF {}", report.ff_pct);
        assert!(
            (report.bram_pct - 60.69).abs() < 4.0,
            "BRAM {}",
            report.bram_pct
        );
        assert!(
            (report.dsp_pct - 0.08).abs() < 0.05,
            "DSP {}",
            report.dsp_pct
        );
        assert!(report.fits());
    }

    #[test]
    fn bsl_uses_no_more_logic_than_mlp() {
        let cfg = RmeHwConfig::default();
        let bsl = estimate_usage(&cfg, HwRevision::Bsl);
        let mlp = estimate_usage(&cfg, HwRevision::Mlp);
        assert!(bsl.luts < mlp.luts);
        assert!(bsl.ffs < mlp.ffs);
        assert!(bsl.bram36 <= mlp.bram36);
    }

    #[test]
    fn area_scales_with_fetch_units_and_spm() {
        let small = RmeHwConfig {
            fetch_units: 1,
            data_spm_bytes: 256 * 1024,
            ..RmeHwConfig::default()
        };
        let big = RmeHwConfig {
            fetch_units: 8,
            ..RmeHwConfig::default()
        };
        let s = estimate_usage(&small, HwRevision::Mlp);
        let b = estimate_usage(&big, HwRevision::Mlp);
        assert!(s.luts < b.luts);
        assert!(s.bram36 < b.bram36);
    }

    #[test]
    fn fits_on_a_small_board_only_with_a_small_spm() {
        // The paper argues the design could fit a Zybo Z7-10 — but only if
        // the SPMs are shrunk to the smaller device's BRAM budget.
        let shrunk = RmeHwConfig {
            data_spm_bytes: 128 * 1024,
            metadata_spm_bytes: 8 * 1024,
            fetch_units: 2,
            ..RmeHwConfig::default()
        };
        let report = estimate_area(&shrunk, HwRevision::Mlp, DeviceCapacity::zybo_z7_10());
        assert!(report.fits(), "{report:?}");
        let full = estimate_area(
            &RmeHwConfig::default(),
            HwRevision::Mlp,
            DeviceCapacity::zybo_z7_10(),
        );
        assert!(!full.fits());
    }
}
