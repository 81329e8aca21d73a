//! Simulation clock and calendar.
//!
//! Traces span days to weeks (Table 1) and the paper's §6.3 analysis slices
//! samples by **weekday vs. weekend** and by **six-hour PST periods**, so
//! the simulator needs a calendar, not just a number: every trace starts at
//! midnight UTC on a Monday, and local time at a router follows its city's
//! UTC offset.

/// A point in simulated time: seconds since trace start.
///
/// Plain `f64` seconds keep the arithmetic obvious; sub-millisecond
/// precision is ample for a measurement study.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct SimTime(pub f64);

impl SimTime {
    /// Trace start.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Builds from hours.
    pub fn from_hours(hours: f64) -> SimTime {
        SimTime(hours * 3_600.0)
    }

    /// Time advanced by `secs`.
    pub fn plus_secs(&self, secs: f64) -> SimTime {
        SimTime(self.0 + secs)
    }
}

/// Weekday or weekend, the paper's coarse §6.3 split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DayKind {
    /// Monday through Friday.
    Weekday,
    /// Saturday or Sunday.
    Weekend,
}

/// Converts simulation time to calendar quantities. Trace time zero is
/// **Monday 00:00 UTC**.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calendar;

impl Calendar {
    /// Local hour-of-day (0.0 ..< 24.0) at a site with the given UTC offset.
    pub fn local_hour(&self, t: SimTime, utc_offset_hours: i8) -> f64 {
        let local = t.0 / 3_600.0 + utc_offset_hours as f64;
        local.rem_euclid(24.0)
    }

    /// Local day kind at a site with the given UTC offset.
    pub fn day_kind(&self, t: SimTime, utc_offset_hours: i8) -> DayKind {
        let local_days = (t.0 / 3_600.0 + utc_offset_hours as f64) / 24.0;
        let dow = (local_days.floor() as i64).rem_euclid(7);
        if dow >= 5 {
            DayKind::Weekend
        } else {
            DayKind::Weekday
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_starts_monday_midnight() {
        let c = Calendar;
        assert_eq!(c.local_hour(SimTime::ZERO, 0), 0.0);
        assert_eq!(c.day_kind(SimTime::ZERO, 0), DayKind::Weekday);
    }

    #[test]
    fn saturday_is_weekend() {
        let c = Calendar;
        let saturday_noon = SimTime::from_hours(5.5 * 24.0);
        assert_eq!(c.day_kind(saturday_noon, 0), DayKind::Weekend);
        let sunday = SimTime::from_hours(6.1 * 24.0);
        assert_eq!(c.day_kind(sunday, 0), DayKind::Weekend);
        let monday2 = SimTime::from_hours(7.2 * 24.0);
        assert_eq!(c.day_kind(monday2, 0), DayKind::Weekday);
    }

    #[test]
    fn local_hour_respects_utc_offset() {
        let c = Calendar;
        let noon_utc = SimTime::from_hours(12.0);
        assert_eq!(c.local_hour(noon_utc, 0), 12.0);
        // Seattle (UTC-8): 04:00 local.
        assert_eq!(c.local_hour(noon_utc, -8), 4.0);
        // Tokyo (UTC+9): 21:00 local.
        assert_eq!(c.local_hour(noon_utc, 9), 21.0);
    }

    #[test]
    fn local_weekend_shifts_with_offset() {
        let c = Calendar;
        // 02:00 UTC Saturday is still 18:00 Friday in Seattle.
        let t = SimTime::from_hours(5.0 * 24.0).plus_secs(2.0 * 3600.0);
        assert_eq!(c.day_kind(t, 0), DayKind::Weekend);
        assert_eq!(c.day_kind(t, -8), DayKind::Weekday);
    }

    #[test]
    fn hours_wrap_across_weeks() {
        let c = Calendar;
        let t = SimTime::from_hours(13.0 * 24.0).plus_secs(3600.0 * 25.0);
        let h = c.local_hour(t, 0);
        assert!((0.0..24.0).contains(&h));
        assert!((h - 1.0).abs() < 1e-9);
    }
}
