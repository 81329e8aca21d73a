//! The four workloads. Each drives the program only through its public
//! functions, times an iteration until every output exists, and has a
//! traced variant that makes the same calls one at a time inside spans.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use detour_bench::experiments::{self, ALL_EXPERIMENTS};
use detour_bench::{cache, scale, Bundle, Study};
use detour_core::analysis::cdf::compare_all_pairs;
use detour_core::analysis::hostremoval::{greedy_removal, RemovalAnalysis};
use detour_core::{
    AnalysisContext, ArtifactKind, Degradation, Loss, MetricKind, PathComparison, Rtt, SearchDepth,
};
use detour_datasets::{d2, n2, trace2, uw1, uw3, uw4, DatasetSpec, Scale};
use detour_faults::FaultConfig;
use detour_measure::Dataset;
use detour_netsim::topology::generator::TopologyConfig;
use detour_netsim::{Network, NetworkConfig};
use detour_obs::Stopwatch;

use crate::check::{self, Outputs};
use crate::trace::Tracer;

/// Workload names, in the order the suite runs them.
pub const NAMES: [&str; 4] = ["paper_cold", "paper_warm", "scale_mesh", "faulted_cold"];

/// What every workload is given.
pub struct Cfg {
    /// Input seed.
    pub seed: u64,
    /// Reduced scales for a quick end-to-end check of the benchmark itself.
    pub smoke: bool,
    /// Scratch directory owned by this run.
    pub tmp: PathBuf,
}

/// Wall times of one untraced iteration.
pub struct Laps {
    /// Until every output exists.
    pub iter_s: f64,
    /// The engine's `run_all`, where the workload has one.
    pub run_all_s: Option<f64>,
}

/// Work counts only the traced calls know.
#[derive(Debug, Default)]
pub struct Facts {
    /// Probe records produced by `generate_on`.
    pub probes: u64,
    /// Transfer records produced by `generate_on`.
    pub transfers: u64,
    /// Bytes written by `trace2::save`.
    pub saved_bytes: u64,
    /// Bytes read by `trace2::load`.
    pub loaded_bytes: u64,
}

/// One workload.
pub trait Workload {
    /// What an iteration leaves behind for the output checks.
    type Product;

    /// Prepares the inputs, and runs one untimed iteration where the
    /// workload is a warm one.
    fn setup(&mut self) -> std::io::Result<()>;
    /// Digests the outputs must equal (the committed reports at seed 0).
    fn expected(&self) -> Outputs {
        Vec::new()
    }
    /// Checks of the inputs themselves, run once after the timed iterations.
    fn input_checks(&mut self) -> std::io::Result<Vec<(&'static str, bool)>> {
        Ok(Vec::new())
    }
    /// One untraced iteration.
    fn iterate(&mut self) -> (Self::Product, Laps);
    /// The same work, one layer call at a time inside spans, all inside a
    /// `benchmark::iteration` span.
    fn traced(&mut self, t: &mut Tracer, facts: &mut Facts) -> Self::Product;
    /// Named digests of the outputs.
    fn outputs(&self, p: &Self::Product) -> Outputs;
    /// The analysis contexts the iteration built.
    fn contexts<'a>(&self, p: &'a Self::Product) -> Vec<&'a AnalysisContext>;
}

fn reset_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    std::fs::create_dir_all(dir)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

// ---------------------------------------------------------------------------
// paper_cold and paper_warm
// ---------------------------------------------------------------------------

/// The eight Table-1 datasets in `Bundle` field order.
const DATASETS: [&str; 8] = ["D2", "D2-NA", "N2", "N2-NA", "UW1", "UW3", "UW4-A", "UW4-B"];

fn bundle_of(datasets: Vec<Dataset>) -> Bundle {
    let mut it = datasets.into_iter();
    let mut next = || it.next().expect("eight datasets");
    Bundle {
        d2: next(),
        d2_na: next(),
        n2: next(),
        n2_na: next(),
        uw1: next(),
        uw3: next(),
        uw4_a: next(),
        uw4_b: next(),
    }
}

/// The 19 reports and the study they came from.
pub struct Paper {
    study: Study,
    reports: Vec<String>,
}

/// `paper_cold` (`warm == false`) or `paper_warm`: the whole paper
/// pipeline at full scale, from an empty or a primed trace cache.
pub struct PaperRun {
    cfg: Cfg,
    warm: bool,
    scale: Scale,
    cache: PathBuf,
    expected: Outputs,
}

/// The study variants a seed picks from: seed `S` regenerates the study
/// with seed offset `STUDY_OFFSETS[S % 11]`, so seed 0 is the canonical
/// run. Of offsets 0–39, the pipeline panics at 8, 20, 24, 27 and 30 (a
/// topology with too few hosts). Of the rest, a scan with one pool worker
/// kept offset 0 and those whose cold and warm iteration times, each the
/// mean of two runs, lie within 10 % of the median over all completing
/// offsets, and whose peak RSS lies within 6 %. Unfiltered, the cold
/// iteration's time differs by up to ±18 % and its peak RSS by up to −22 %
/// between offsets.
const STUDY_OFFSETS: [u64; 11] = [0, 1, 3, 6, 7, 13, 22, 23, 29, 35, 39];

impl PaperRun {
    /// A paper workload on `cfg`.
    pub fn new(cfg: Cfg, warm: bool) -> PaperRun {
        let offset = STUDY_OFFSETS[(cfg.seed % STUDY_OFFSETS.len() as u64) as usize];
        let scale = if cfg.smoke {
            Scale::reduced(8, 24)
        } else {
            Scale::full()
        }
        .with_seed_offset(offset);
        let cache = cfg.tmp.join("cache");
        PaperRun {
            cfg,
            warm,
            scale,
            cache,
            expected: Vec::new(),
        }
    }

    fn cache_file(&self, name: &str) -> PathBuf {
        cache::cache_path(&self.cache, name, self.scale)
    }

    /// Generates the eight datasets with the calls `Bundle::generate` makes
    /// per family, one at a time, and saves each to the cache.
    fn generate_traced(&self, t: &mut Tracer, facts: &mut Facts) -> Bundle {
        let scale = self.scale;
        let build = |t: &mut Tracer, s: &DatasetSpec| {
            t.call("netsim", "build_network", s.name, || {
                detour_datasets::build_network(s, scale)
            })
        };
        let mut generate = |t: &mut Tracer, net: &Network, s: &DatasetSpec| {
            let ds = t.call("measure", "generate_on", s.name, || {
                detour_datasets::generate_on(net, s, scale)
            });
            facts.probes += ds.probes.len() as u64;
            facts.transfers += ds.transfers.len() as u64;
            ds
        };
        let restrict = |t: &mut Tracer, net: &Network, parent: &Dataset, name: &str| {
            t.call("measure", "restrict_na", name, || {
                detour_datasets::restrict_na(net, parent, name)
            })
        };
        let drop_net = |t: &mut Tracer, net: Network, name: &str| {
            t.call("netsim", "drop_network", name, || drop(net));
        };

        let mut out = Vec::with_capacity(8);
        for (s, na) in [(d2::spec(), "D2-NA"), (n2::spec(), "N2-NA")] {
            let net = build(t, &s);
            let ds = generate(t, &net, &s);
            let ds_na = restrict(t, &net, &ds, na);
            drop_net(t, net, s.name);
            out.extend([ds, ds_na]);
        }
        for s in [uw1::spec(), uw3::spec()] {
            let net = build(t, &s);
            out.push(generate(t, &net, &s));
            drop_net(t, net, s.name);
        }
        let (a, b) = (uw4::spec_a(), uw4::spec_b());
        let net = build(t, &a);
        out.push(generate(t, &net, &a));
        out.push(generate(t, &net, &b));
        drop_net(t, net, a.name);

        for ds in &out {
            let path = self.cache_file(&ds.name);
            t.call("datasets", "save", &ds.name, || trace2::save(ds, &path))
                .expect("save a generated dataset");
            facts.saved_bytes += file_len(&path);
        }
        bundle_of(out)
    }

    fn load_traced(&self, t: &mut Tracer, facts: &mut Facts) -> Bundle {
        let loaded = DATASETS
            .iter()
            .map(|name| {
                let path = self.cache_file(name);
                facts.loaded_bytes += file_len(&path);
                t.call("datasets", "load", name, || trace2::load(&path))
                    .expect("load a cached dataset")
            })
            .collect();
        bundle_of(loaded)
    }
}

impl Workload for PaperRun {
    type Product = Paper;

    /// Reads the committed reports (seed offset 0); `paper_warm` also
    /// primes the cache and runs one untimed iteration. `paper_cold` has
    /// no warm-up: its timed iteration is the first run a user makes.
    fn setup(&mut self) -> std::io::Result<()> {
        reset_dir(&self.cfg.tmp)?;
        self.expected.clear();
        if self.scale.seed_offset == 0 && !self.cfg.smoke {
            for id in ALL_EXPERIMENTS {
                let committed = std::fs::read(Path::new("results").join(format!("{id}.txt")))?;
                self.expected
                    .push((id.to_string(), check::of_bytes(&committed)));
            }
        }
        if self.warm {
            Bundle::generate_cached(self.scale, &self.cache)?;
            self.iterate();
        }
        Ok(())
    }

    fn expected(&self) -> Outputs {
        self.expected.clone()
    }

    fn iterate(&mut self) -> (Paper, Laps) {
        if !self.warm {
            reset_dir(&self.cache).expect("empty the trace cache");
        }
        let clock = Stopwatch::start();
        let bundle = Bundle::generate_cached(self.scale, &self.cache).expect("trace cache");
        let study = Study::from_bundle(bundle);
        let engine = Stopwatch::start();
        let reports = experiments::run_all(&study, ALL_EXPERIMENTS);
        let laps = Laps {
            iter_s: clock.seconds(),
            run_all_s: Some(engine.seconds()),
        };
        (Paper { study, reports }, laps)
    }

    fn traced(&mut self, t: &mut Tracer, facts: &mut Facts) -> Paper {
        if !self.warm {
            reset_dir(&self.cache).expect("empty the trace cache");
        }
        t.begin("benchmark", "iteration", "");
        let bundle = if self.warm {
            self.load_traced(t, facts)
        } else {
            self.generate_traced(t, facts)
        };
        let study = t.call("core", "context", "8 datasets", || {
            Study::from_bundle(bundle)
        });
        let needs = experiments::resolve_needs(ALL_EXPERIMENTS);
        t.call("engine", "prebuild", "", || {
            experiments::prebuild(&study, &needs)
        });
        let reports = ALL_EXPERIMENTS
            .iter()
            .map(|id| {
                t.call("engine", "run", id, || {
                    experiments::run(id, &study).expect("registered experiment")
                })
            })
            .collect();
        t.end();
        Paper { study, reports }
    }

    fn outputs(&self, p: &Paper) -> Outputs {
        let reports = ALL_EXPERIMENTS
            .iter()
            .zip(&p.reports)
            .map(|(id, r)| (id.to_string(), check::of_bytes(r.as_bytes())));
        let datasets = p
            .study
            .in_table_order()
            .map(|cx| (cx.dataset().name.clone(), check::of_dataset(cx.dataset())));
        reports.chain(datasets).collect()
    }

    fn contexts<'a>(&self, p: &'a Paper) -> Vec<&'a AnalysisContext> {
        p.study.in_table_order().to_vec()
    }
}

// ---------------------------------------------------------------------------
// scale_mesh
// ---------------------------------------------------------------------------

/// The SCALE analyses.
pub struct Mesh {
    cx: AnalysisContext,
    rtt: Vec<PathComparison>,
    loss: Vec<PathComparison>,
    rtt_one_hop: Vec<PathComparison>,
    greedy: RemovalAnalysis,
}

/// `scale_mesh`: the all-pairs analysis kernel on the 128-host SCALE
/// dataset, loaded from a `.trace2` file written in setup.
pub struct ScaleMesh {
    cfg: Cfg,
    spec: DatasetSpec,
    scale: Scale,
    path: PathBuf,
}

impl ScaleMesh {
    /// The workload on `cfg`. The seed varies the network only: the
    /// campaign seed fixes how many full-mesh episodes SCALE holds, and
    /// with about 14 of them a varying count would swing the input size
    /// by a quarter from seed to seed.
    pub fn new(cfg: Cfg) -> ScaleMesh {
        let scale = if cfg.smoke {
            Scale {
                n_hosts: Some(24),
                time_divisor: 120,
                seed_offset: 0,
            }
        } else {
            scale::scale_scale()
        };
        let base = scale::scale_spec();
        let spec = DatasetSpec {
            network_seed: scale
                .with_seed_offset(cfg.seed)
                .mixed_seed(base.network_seed),
            ..base
        };
        let path = cache::cache_path(&cfg.tmp, spec.name, scale);
        ScaleMesh {
            cfg,
            spec,
            scale,
            path,
        }
    }
}

/// The network `detour_bench::scale` measures: era defaults with 200 stub
/// ASes, all North American, none rate limiting. The seed-0 input check
/// holds this copy to the original.
fn scale_network(spec: &DatasetSpec, scale: Scale) -> Network {
    let horizon_days = spec.duration_days / f64::from(scale.time_divisor);
    let mut cfg =
        NetworkConfig::for_era(spec.era, scale.mixed_seed(spec.network_seed), horizon_days);
    cfg.topology = TopologyConfig {
        n_stub: 200,
        stubs_na_only: true,
        rate_limited_fraction: 0.0,
        ..cfg.topology
    };
    Network::generate(&cfg)
}

impl Workload for ScaleMesh {
    type Product = Mesh;

    fn setup(&mut self) -> std::io::Result<()> {
        reset_dir(&self.cfg.tmp)?;
        let net = scale_network(&self.spec, self.scale);
        let ds = detour_datasets::generate_on(&net, &self.spec, self.scale);
        trace2::save(&ds, &self.path)?;
        self.iterate();
        Ok(())
    }

    fn input_checks(&mut self) -> std::io::Result<Vec<(&'static str, bool)>> {
        if self.cfg.seed != 0 || self.cfg.smoke {
            return Ok(Vec::new());
        }
        let (reference, _) = scale::load_or_generate(&self.cfg.tmp.join("scale-reference"))?;
        let ours = trace2::load(&self.path).map_err(|e| std::io::Error::other(e.to_string()))?;
        Ok(vec![(
            "SCALE dataset equals detour_bench::scale's",
            ours == reference,
        )])
    }

    fn iterate(&mut self) -> (Mesh, Laps) {
        let clock = Stopwatch::start();
        let ds = trace2::load(&self.path).expect("load SCALE");
        let cx = AnalysisContext::new(Arc::new(ds));
        let rtt = compare_all_pairs(&cx, &Rtt, SearchDepth::Unrestricted);
        let loss = compare_all_pairs(&cx, &Loss, SearchDepth::Unrestricted);
        let rtt_one_hop = compare_all_pairs(&cx, &Rtt, SearchDepth::OneHop);
        let greedy = greedy_removal(&cx, &Rtt, 1);
        let laps = Laps {
            iter_s: clock.seconds(),
            run_all_s: None,
        };
        let mesh = Mesh {
            cx,
            rtt,
            loss,
            rtt_one_hop,
            greedy,
        };
        (mesh, laps)
    }

    fn traced(&mut self, t: &mut Tracer, facts: &mut Facts) -> Mesh {
        t.begin("benchmark", "iteration", "");
        facts.loaded_bytes += file_len(&self.path);
        let ds = t
            .call("datasets", "load", "SCALE", || trace2::load(&self.path))
            .expect("load SCALE");
        let cx = t.call("core", "context", "SCALE", || {
            AnalysisContext::new(Arc::new(ds))
        });
        t.call("core", "artifacts", "rtt", || {
            cx.ensure(ArtifactKind::Weights(MetricKind::Rtt))
        });
        t.call("core", "artifacts", "loss", || {
            cx.ensure(ArtifactKind::Weights(MetricKind::Loss))
        });
        let rtt = t.call("core", "compare", "rtt", || {
            compare_all_pairs(&cx, &Rtt, SearchDepth::Unrestricted)
        });
        let loss = t.call("core", "compare", "loss", || {
            compare_all_pairs(&cx, &Loss, SearchDepth::Unrestricted)
        });
        let rtt_one_hop = t.call("core", "compare", "rtt one-hop", || {
            compare_all_pairs(&cx, &Rtt, SearchDepth::OneHop)
        });
        let greedy = t.call("core", "greedy", "rtt k=1", || greedy_removal(&cx, &Rtt, 1));
        t.end();
        Mesh {
            cx,
            rtt,
            loss,
            rtt_one_hop,
            greedy,
        }
    }

    fn outputs(&self, m: &Mesh) -> Outputs {
        vec![
            ("rtt".into(), check::of_comparisons(&m.rtt)),
            ("loss".into(), check::of_comparisons(&m.loss)),
            ("rtt_one_hop".into(), check::of_comparisons(&m.rtt_one_hop)),
            ("greedy".into(), check::of_removal(&m.greedy)),
        ]
    }

    fn contexts<'a>(&self, m: &'a Mesh) -> Vec<&'a AnalysisContext> {
        vec![&m.cx]
    }
}

// ---------------------------------------------------------------------------
// faulted_cold
// ---------------------------------------------------------------------------

/// One faulted dataset and its analyses.
pub struct FaultedDataset {
    cx: AnalysisContext,
    rtt: Vec<PathComparison>,
    loss: Vec<PathComparison>,
    degradation: Degradation,
}

/// `faulted_cold`: UW3 and UW1 at full scale under heavy injected faults,
/// generated and analysed from scratch. The seed varies the faults only.
pub struct FaultedCold {
    cfg: Cfg,
    scale: Scale,
    specs: [DatasetSpec; 2],
}

impl FaultedCold {
    /// The workload on `cfg`.
    pub fn new(cfg: Cfg) -> FaultedCold {
        let scale = if cfg.smoke {
            Scale::reduced(8, 24)
        } else {
            Scale::full()
        };
        let specs = [uw3::spec(), uw1::spec()].map(|s| DatasetSpec {
            faults: FaultConfig::heavy(cfg.seed),
            ..s
        });
        FaultedCold { cfg, scale, specs }
    }
}

impl Workload for FaultedCold {
    type Product = Vec<FaultedDataset>;

    fn setup(&mut self) -> std::io::Result<()> {
        reset_dir(&self.cfg.tmp)?;
        self.iterate();
        Ok(())
    }

    fn iterate(&mut self) -> (Vec<FaultedDataset>, Laps) {
        let clock = Stopwatch::start();
        let out = self
            .specs
            .iter()
            .map(|s| {
                let net = detour_datasets::build_network(s, self.scale);
                let ds = detour_datasets::generate_on(&net, s, self.scale);
                drop(net);
                let cx = AnalysisContext::new(Arc::new(ds));
                FaultedDataset {
                    rtt: compare_all_pairs(&cx, &Rtt, SearchDepth::Unrestricted),
                    loss: compare_all_pairs(&cx, &Loss, SearchDepth::Unrestricted),
                    degradation: cx.degradation(),
                    cx,
                }
            })
            .collect();
        let laps = Laps {
            iter_s: clock.seconds(),
            run_all_s: None,
        };
        (out, laps)
    }

    fn traced(&mut self, t: &mut Tracer, facts: &mut Facts) -> Vec<FaultedDataset> {
        t.begin("benchmark", "iteration", "");
        let scale = self.scale;
        let out = self
            .specs
            .iter()
            .map(|s| {
                let net = t.call("netsim", "build_network", s.name, || {
                    detour_datasets::build_network(s, scale)
                });
                let ds = t.call("measure", "generate_on", s.name, || {
                    detour_datasets::generate_on(&net, s, scale)
                });
                t.call("netsim", "drop_network", s.name, || drop(net));
                facts.probes += ds.probes.len() as u64;
                facts.transfers += ds.transfers.len() as u64;
                let cx = t.call("core", "context", s.name, || {
                    AnalysisContext::new(Arc::new(ds))
                });
                t.call("core", "artifacts", "rtt", || {
                    cx.ensure(ArtifactKind::Weights(MetricKind::Rtt))
                });
                t.call("core", "artifacts", "loss", || {
                    cx.ensure(ArtifactKind::Weights(MetricKind::Loss))
                });
                FaultedDataset {
                    rtt: t.call("core", "compare", "rtt", || {
                        compare_all_pairs(&cx, &Rtt, SearchDepth::Unrestricted)
                    }),
                    loss: t.call("core", "compare", "loss", || {
                        compare_all_pairs(&cx, &Loss, SearchDepth::Unrestricted)
                    }),
                    degradation: t.call("core", "degradation", s.name, || cx.degradation()),
                    cx,
                }
            })
            .collect();
        t.end();
        out
    }

    fn outputs(&self, p: &Vec<FaultedDataset>) -> Outputs {
        p.iter()
            .flat_map(|f| {
                let name = &f.cx.dataset().name;
                [
                    (format!("{name}/dataset"), check::of_dataset(f.cx.dataset())),
                    (format!("{name}/rtt"), check::of_comparisons(&f.rtt)),
                    (format!("{name}/loss"), check::of_comparisons(&f.loss)),
                    (
                        format!("{name}/degradation"),
                        check::of_degradation(&f.degradation),
                    ),
                ]
            })
            .collect()
    }

    fn contexts<'a>(&self, p: &'a Vec<FaultedDataset>) -> Vec<&'a AnalysisContext> {
        p.iter().map(|f| &f.cx).collect()
    }
}
