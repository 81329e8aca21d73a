//! Plain-text trace files.
//!
//! Generated datasets can be saved to disk, eyeballed, diffed, and reloaded
//! without regenerating the simulation — the workflow any trace-driven
//! study needs. The format is deliberately boring: one record per line,
//! space-separated, `#` comments, no binary framing, no external
//! dependencies.
//!
//! ```text
//! # detour trace v1
//! dataset UW3
//! duration_s 604800
//! host 12 17 0 host0.as17.Seattle
//! aspath 0 17 3 1 24
//! probe 12 31 15.25 0 47.31 1 - 0
//! transfer 12 31 99.0 120.5 0.012 88.4
//! ratelimited 9
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::str::FromStr;

use detour_netsim::HostId;

use crate::dataset::Dataset;
use crate::record::{HostMeta, ProbeSample, TransferSample};

/// Errors arising when parsing a trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Serializes a dataset to the v1 text format.
pub fn to_string(ds: &Dataset) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# detour trace v1");
    let _ = writeln!(s, "dataset {}", ds.name);
    let _ = writeln!(s, "duration_s {}", ds.duration_s);
    if ds.starved_pairs > 0 {
        let _ = writeln!(s, "starved_pairs {}", ds.starved_pairs);
    }
    for h in &ds.hosts {
        let _ = writeln!(
            s,
            "host {} {} {} {}",
            h.id.0, h.asn, h.truly_rate_limited as u8, h.name
        );
    }
    for (i, p) in ds.as_paths.iter().enumerate() {
        let _ = write!(s, "aspath {i}");
        for a in p {
            let _ = write!(s, " {a}");
        }
        let _ = writeln!(s);
    }
    for p in &ds.probes {
        let rtt = p.rtt_ms.map_or("-".to_string(), |r| format!("{r}"));
        let ep = p.episode.map_or("-".to_string(), |e| format!("{e}"));
        let _ = writeln!(
            s,
            "probe {} {} {} {} {} {} {} {}",
            p.src.0, p.dst.0, p.t_s, p.probe_index, rtt, p.loss_eligible as u8, ep, p.path_idx
        );
    }
    for t in &ds.transfers {
        let _ = writeln!(
            s,
            "transfer {} {} {} {} {} {}",
            t.src.0, t.dst.0, t.t_s, t.rtt_ms, t.loss_rate, t.bandwidth_kbps
        );
    }
    for h in &ds.detected_rate_limited {
        let _ = writeln!(s, "ratelimited {}", h.0);
    }
    s
}

fn field<T: FromStr>(parts: &[&str], idx: usize, line: usize) -> Result<T, ParseError> {
    parts
        .get(idx)
        .ok_or_else(|| ParseError {
            line,
            message: format!("missing field {idx}"),
        })?
        .parse()
        .map_err(|_| ParseError {
            line,
            message: format!("bad field {idx}: {:?}", parts[idx]),
        })
}

/// Parses the v1 text format back into a dataset.
pub fn from_str(text: &str) -> Result<Dataset, ParseError> {
    let mut ds = Dataset {
        name: String::new(),
        hosts: Vec::new(),
        probes: Vec::new(),
        transfers: Vec::new(),
        as_paths: Vec::new(),
        duration_s: 0.0,
        detected_rate_limited: Vec::new(),
        starved_pairs: 0,
    };
    for (i, raw_line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            // Comments are skipped, but a version banner is checked: loading
            // a trace written by a future format must fail loudly rather
            // than silently mis-parse (the on-disk cache depends on this).
            if let Some(version) = line
                .strip_prefix('#')
                .map(str::trim)
                .and_then(|c| c.strip_prefix("detour trace v"))
            {
                if version != "1" {
                    return Err(ParseError {
                        line: line_no,
                        message: format!(
                            "unsupported trace version {version:?} (this reader understands v1)"
                        ),
                    });
                }
            }
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts[0] {
            // A bare `dataset` line used to silently produce an empty name
            // (and a cache entry that could never match); it is a corrupt
            // record and must say so.
            "dataset" => {
                ds.name = parts
                    .get(1)
                    .ok_or_else(|| ParseError {
                        line: line_no,
                        message: "dataset record is missing its name".to_string(),
                    })?
                    .to_string()
            }
            "duration_s" => ds.duration_s = field(&parts, 1, line_no)?,
            // Absent in traces written before the fault-injection work;
            // the struct default of 0 covers those.
            "starved_pairs" => ds.starved_pairs = field(&parts, 1, line_no)?,
            "host" => ds.hosts.push(HostMeta {
                id: HostId(field(&parts, 1, line_no)?),
                asn: field(&parts, 2, line_no)?,
                truly_rate_limited: field::<u8>(&parts, 3, line_no)? != 0,
                name: parts.get(4..).map_or(String::new(), |p| p.join(" ")),
            }),
            "aspath" => {
                let idx: usize = field(&parts, 1, line_no)?;
                if idx != ds.as_paths.len() {
                    return Err(ParseError {
                        line: line_no,
                        message: format!("aspath index {idx} out of order"),
                    });
                }
                let path = parts[2..]
                    .iter()
                    .map(|x| {
                        x.parse().map_err(|_| ParseError {
                            line: line_no,
                            message: format!("bad AS number {x:?}"),
                        })
                    })
                    .collect::<Result<Vec<u16>, _>>()?;
                ds.as_paths.push(path);
            }
            "probe" => {
                let rtt_ms = match parts.get(5) {
                    Some(&"-") => None,
                    _ => Some(field::<f64>(&parts, 5, line_no)?),
                };
                // `f64::from_str` accepts `NaN` and `inf`; the analysis
                // sorts RTTs and cannot order a NaN.
                if rtt_ms.is_some_and(|r| !r.is_finite()) {
                    return Err(ParseError {
                        line: line_no,
                        message: format!("non-finite probe RTT {:?}", parts[5]),
                    });
                }
                let episode = match parts.get(7) {
                    Some(&"-") => None,
                    _ => Some(field(&parts, 7, line_no)?),
                };
                ds.probes.push(ProbeSample {
                    src: HostId(field(&parts, 1, line_no)?),
                    dst: HostId(field(&parts, 2, line_no)?),
                    t_s: field(&parts, 3, line_no)?,
                    probe_index: field(&parts, 4, line_no)?,
                    rtt_ms,
                    loss_eligible: field::<u8>(&parts, 6, line_no)? != 0,
                    episode,
                    path_idx: field(&parts, 8, line_no)?,
                });
            }
            "transfer" => ds.transfers.push(TransferSample {
                src: HostId(field(&parts, 1, line_no)?),
                dst: HostId(field(&parts, 2, line_no)?),
                t_s: field(&parts, 3, line_no)?,
                rtt_ms: field(&parts, 4, line_no)?,
                loss_rate: field(&parts, 5, line_no)?,
                bandwidth_kbps: field(&parts, 6, line_no)?,
            }),
            "ratelimited" => ds
                .detected_rate_limited
                .push(HostId(field(&parts, 1, line_no)?)),
            other => {
                return Err(ParseError {
                    line: line_no,
                    message: format!("unknown record type {other:?}"),
                })
            }
        }
    }
    Ok(ds)
}

/// Writes a dataset to `path`.
pub fn save(ds: &Dataset, path: &Path) -> std::io::Result<()> {
    fs::write(path, to_string(ds))
}

/// Reads a dataset from `path`.
pub fn load(path: &Path) -> Result<Dataset, Box<dyn std::error::Error>> {
    Ok(from_str(&fs::read_to_string(path)?)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dataset() -> Dataset {
        Dataset {
            name: "TEST".into(),
            hosts: vec![
                HostMeta {
                    id: HostId(3),
                    name: "host0.as9.Seattle".into(),
                    asn: 9,
                    truly_rate_limited: false,
                },
                HostMeta {
                    id: HostId(5),
                    name: "host0.as11.Miami".into(),
                    asn: 11,
                    truly_rate_limited: true,
                },
            ],
            probes: vec![
                ProbeSample {
                    src: HostId(3),
                    dst: HostId(5),
                    t_s: 12.5,
                    probe_index: 0,
                    rtt_ms: Some(88.25),
                    loss_eligible: true,
                    episode: None,
                    path_idx: 0,
                },
                ProbeSample {
                    src: HostId(3),
                    dst: HostId(5),
                    t_s: 12.6,
                    probe_index: 1,
                    rtt_ms: None,
                    loss_eligible: false,
                    episode: Some(4),
                    path_idx: 0,
                },
            ],
            transfers: vec![TransferSample {
                src: HostId(5),
                dst: HostId(3),
                t_s: 99.0,
                rtt_ms: 120.5,
                loss_rate: 0.0125,
                bandwidth_kbps: 88.4,
            }],
            as_paths: vec![vec![9, 2, 11]],
            duration_s: 86_400.0,
            detected_rate_limited: vec![HostId(5)],
            starved_pairs: 3,
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ds = sample_dataset();
        let text = to_string(&ds);
        let back = from_str(&text).expect("parses");
        assert_eq!(back.name, ds.name);
        assert_eq!(back.duration_s, ds.duration_s);
        assert_eq!(back.hosts, ds.hosts);
        assert_eq!(back.probes, ds.probes);
        assert_eq!(back.transfers, ds.transfers);
        assert_eq!(back.as_paths, ds.as_paths);
        assert_eq!(back.detected_rate_limited, ds.detected_rate_limited);
        assert_eq!(back.starved_pairs, ds.starved_pairs);
    }

    #[test]
    fn bare_dataset_line_is_a_typed_error() {
        // Regression: `dataset` with no name used to parse as an empty
        // dataset name instead of failing.
        let err = from_str("dataset\nduration_s 10\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("missing its name"), "{}", err.message);
    }

    #[test]
    fn starved_pairs_default_to_zero_for_old_traces() {
        let ds = from_str("dataset X\nduration_s 5\n").unwrap();
        assert_eq!(ds.starved_pairs, 0);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# comment\n\ndataset X\nduration_s 10\n";
        let ds = from_str(text).unwrap();
        assert_eq!(ds.name, "X");
        assert_eq!(ds.duration_s, 10.0);
    }

    #[test]
    fn unknown_trace_version_is_an_error() {
        let err = from_str("# detour trace v2\ndataset X\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(
            err.message.contains("unsupported trace version"),
            "{}",
            err.message
        );
        assert!(
            err.message.contains("v2") || err.message.contains("\"2\""),
            "{}",
            err.message
        );
    }

    #[test]
    fn current_version_banner_is_accepted() {
        let ds = from_str("# detour trace v1\ndataset X\nduration_s 5\n").unwrap();
        assert_eq!(ds.name, "X");
    }

    #[test]
    fn unknown_record_is_an_error() {
        let err = from_str("bogus 1 2 3\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("bogus"));
    }

    #[test]
    fn bad_field_reports_line() {
        let err = from_str("dataset X\nduration_s notanumber\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn non_finite_probe_rtt_is_an_error() {
        for rtt in ["NaN", "inf", "-inf"] {
            let text = format!("dataset X\nprobe 1 2 0 0 {rtt} 1 - 0\n");
            let err = from_str(&text).unwrap_err();
            assert_eq!(err.line, 2);
            assert!(err.message.contains("non-finite"), "{}", err.message);
        }
    }

    #[test]
    fn out_of_order_aspath_is_an_error() {
        let err = from_str("aspath 1 9 9\n").unwrap_err();
        assert!(err.message.contains("out of order"));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("detour-tracefile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        let ds = sample_dataset();
        save(&ds, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.probes, ds.probes);
        std::fs::remove_file(&path).ok();
    }
}
