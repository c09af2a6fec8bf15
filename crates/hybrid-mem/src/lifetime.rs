//! PCM lifetime model.
//!
//! Reproduces Equation 1 of the paper:
//!
//! ```text
//!         S × E
//! Y  =  ─────────
//!        B × 2^25
//! ```
//!
//! where `S` is the PCM capacity in bytes, `E` the cell endurance in writes,
//! `B` the application write rate in bytes per second, and `2^25` ≈ the
//! number of seconds in a year. The model is optimistic: it assumes ideal
//! wear-leveling spreads writes uniformly over the full capacity, which is
//! exactly the assumption the paper makes (Section 5.2.2).

/// Seconds-per-year constant used by the paper (2^25 ≈ 3.36 × 10^7).
pub const SECONDS_PER_YEAR: f64 = (1u64 << 25) as f64;

/// PCM endurance levels (writes per cell) explored in Figure 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Endurance {
    /// Pessimistic prototype endurance: 10 million writes per cell.
    Low10M,
    /// The paper's default endurance: 30 million writes per cell.
    Mid30M,
    /// Optimistic endurance: 100 million writes per cell.
    High100M,
}

impl Endurance {
    /// All endurance levels in Figure 1 order.
    pub const ALL: [Endurance; 3] = [Endurance::Low10M, Endurance::Mid30M, Endurance::High100M];

    /// Writes per cell for this endurance level.
    pub fn writes_per_cell(self) -> u64 {
        match self {
            Endurance::Low10M => 10_000_000,
            Endurance::Mid30M => 30_000_000,
            Endurance::High100M => 100_000_000,
        }
    }

    /// Label used in reports ("10 M", "30 M", "100 M").
    pub fn label(self) -> &'static str {
        match self {
            Endurance::Low10M => "10 M",
            Endurance::Mid30M => "30 M",
            Endurance::High100M => "100 M",
        }
    }
}

/// Computes the PCM lifetime in years for a memory of `capacity_bytes`, cell
/// endurance `endurance_writes` and a sustained write rate of
/// `write_rate_bytes_per_s`.
///
/// Returns `f64::INFINITY` when the write rate is zero.
pub fn lifetime_years(capacity_bytes: u64, endurance_writes: u64, write_rate_bytes_per_s: f64) -> f64 {
    if write_rate_bytes_per_s <= 0.0 {
        return f64::INFINITY;
    }
    (capacity_bytes as f64 * endurance_writes as f64) / (write_rate_bytes_per_s * SECONDS_PER_YEAR)
}

/// Convenience wrapper bundling the capacity and endurance of a PCM device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LifetimeModel {
    /// PCM capacity in bytes (32 GB in the paper).
    pub capacity_bytes: u64,
    /// Cell endurance in writes.
    pub endurance_writes: u64,
}

impl LifetimeModel {
    /// The paper's default: 32 GB PCM with 30 M writes-per-cell endurance.
    pub fn paper_default() -> Self {
        LifetimeModel {
            capacity_bytes: 32 << 30,
            endurance_writes: Endurance::Mid30M.writes_per_cell(),
        }
    }

    /// Lifetime in years at `write_rate_bytes_per_s`.
    pub fn years(&self, write_rate_bytes_per_s: f64) -> f64 {
        lifetime_years(self.capacity_bytes, self.endurance_writes, write_rate_bytes_per_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure1_sanity() {
        // Figure 1: a 32 GB PCM-only system with 30 M endurance and the
        // paper's average write rate lasts ~4 years; ~13 years at 100 M.
        // The paper's average estimated write rate (Table 3) is ~11 GB/s.
        let avg_rate = 8.0e9;
        let model = LifetimeModel::paper_default();
        let y30 = model.years(avg_rate);
        assert!((2.0..7.0).contains(&y30), "expected ~4 years, got {y30}");
        let at = |endurance: Endurance| LifetimeModel {
            endurance_writes: endurance.writes_per_cell(),
            ..model
        };
        let y100 = at(Endurance::High100M).years(avg_rate);
        assert!((9.0..16.0).contains(&y100), "expected ~13 years, got {y100}");
        assert!(at(Endurance::Low10M).years(avg_rate) < y30);
    }

    #[test]
    fn lifetime_is_linear_in_write_rate() {
        let model = LifetimeModel::paper_default();
        let y1 = model.years(1e9);
        let y2 = model.years(2e9);
        assert!((y1 / y2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_rate_is_infinite() {
        assert!(lifetime_years(32 << 30, 30_000_000, 0.0).is_infinite());
    }

    #[test]
    fn endurance_levels_order() {
        assert!(Endurance::Low10M.writes_per_cell() < Endurance::Mid30M.writes_per_cell());
        assert!(Endurance::Mid30M.writes_per_cell() < Endurance::High100M.writes_per_cell());
        assert_eq!(Endurance::ALL.len(), 3);
        assert_eq!(Endurance::Mid30M.label(), "30 M");
    }
}
