//! Host CPU steal: time the hypervisor gave this machine's virtual CPUs
//! to someone else. On a shared virtual machine it comes in bursts that
//! slow every wall-clock measurement by tens of percent, so the workloads
//! time their work in small units (one process run, or a short window of
//! requests) and set aside the units that overlap stolen time.

/// A unit counts as clean when less than this share of its CPU time
/// (wall time × CPUs) was stolen. The kernel counts steal in 10 ms ticks,
/// so a unit shorter than 0.5 s per CPU is clean only with no tick at all.
const TOLERANCE: f64 = 0.01;

/// Units kept when at least this share of them is clean; below it the
/// clean ones are too few to stand for the run, and all are kept.
const MIN_CLEAN_SHARE: f64 = 0.25;

/// Stolen time so far, summed over all CPUs, in milliseconds; 0 where the
/// kernel does not report it.
pub fn stolen_ms() -> f64 {
    std::fs::read_to_string("/proc/stat").ok().and_then(|s| parse_steal(&s)).unwrap_or(0.0)
}

/// The `steal` column of the aggregate `cpu` line, in USER_HZ ticks
/// (100 per second on Linux), as milliseconds.
fn parse_steal(stat: &str) -> Option<f64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks as f64 * 10.0)
}

fn cpus() -> f64 {
    std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)
}

/// Whether a unit of `wall_ms` during which `stolen_ms` was stolen is clean.
pub fn clean(wall_ms: f64, stolen_ms: f64) -> bool {
    stolen_ms <= TOLERANCE * wall_ms * cpus()
}

/// Share of the machine's CPU time stolen over `wall_ms`.
pub fn steal_fraction(wall_ms: f64, stolen_ms: f64) -> f64 {
    crate::stats::ratio(stolen_ms, wall_ms * cpus())
}

/// The clean units of `units` (`(unit, clean)` pairs), or all of them
/// when fewer than a quarter are clean; with the share of clean units.
pub fn keep_clean<T>(units: Vec<(T, bool)>) -> (Vec<T>, f64) {
    let clean = units.iter().filter(|(_, c)| *c).count();
    let share = crate::stats::ratio(clean as f64, units.len() as f64);
    let kept = if share >= MIN_CLEAN_SHARE {
        units.into_iter().filter(|(_, c)| *c).map(|(u, _)| u).collect()
    } else {
        units.into_iter().map(|(u, _)| u).collect()
    };
    (kept, share)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_steal_column() {
        let stat = "cpu  563313 0 64240 511027 3994 0 18377 6821 0 0\n\
                    cpu0 184723 0 20738 220142 1641 0 5877 930 0 0\n";
        assert_eq!(parse_steal(stat), Some(68_210.0));
        assert_eq!(parse_steal("intr 1 2 3\n"), None);
        assert!(stolen_ms() >= 0.0);
    }

    #[test]
    fn short_units_are_clean_only_without_steal() {
        assert!(clean(30.0, 0.0));
        assert!(!clean(30.0, 10.0), "one tick stolen from a 30 ms run");
        assert!(clean(2_000.0, 10.0), "one tick in two seconds is within tolerance");
    }

    #[test]
    fn keeps_clean_units_unless_too_few() {
        let units = vec![(1, true), (2, false), (3, true), (4, true)];
        assert_eq!(keep_clean(units), (vec![1, 3, 4], 0.75));
        let mostly_stolen = vec![(1, false), (2, false), (3, false), (4, false), (5, true)];
        assert_eq!(keep_clean(mostly_stolen), (vec![1, 2, 3, 4, 5], 0.2));
        assert_eq!(keep_clean(Vec::<(u8, bool)>::new()), (vec![], 0.0));
    }
}
