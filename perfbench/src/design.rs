//! `design`: the paper's own algorithms with no document work.
//!
//! A closed loop on one thread against engines prepared for the paper's
//! in-text large schema (1000 fields, depth 10, 100 keys): `propagate`
//! (`PropagationEngine::propagation_explained` on seeded `random_fd` probes
//! with lhs sizes 1–4, plus `target_fd`) and `cover` (`minimum_cover`),
//! and `refine` (`xmlprop_core::refine`) on an 11-field schema.  Each
//! round is a seeded shuffle of 500 propagate, 5 cover and 1 refine ops.

use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeSet;
use xmlprop_core::{refine, PropagationEngine};
use xmlprop_reldb::{bcnf_decompose, candidate_keys, synthesize_3nf, Fd};
use xmlprop_workload::{generate, random_fd, target_fd, WorkloadConfig};

use crate::common::{closed_loop, fixed_schema, gate, timed, Cfg, Fnv, Op, Outcome};
use crate::trace::Tracer;

const PROBES: usize = 256;
const SETUPS: usize = 101;
const SETUPS_PER_ROUND: usize = 4;
const ROUND: [(&str, usize); 3] = [("propagate", 500), ("cover", 5), ("refine", 1)];

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut sum = Fnv::new();
    // Seeded: at 1000 fields the layout averages out.
    let large = generate(&WorkloadConfig::new(1000, 10, 100).with_seed(cfg.sub_seed("schema")));
    let small = fixed_schema(11, 4, 10);
    let mut rng = cfg.rng("probes");
    let mut probes: Vec<Fd> = (0..PROBES - 1)
        .map(|_| {
            let lhs = rng.gen_range(1..5);
            random_fd(&large, &mut rng, lhs)
        })
        .collect();
    probes.push(target_fd(&large));
    for (text, fields) in [(&large.universal, 1000), (&small.universal, 11)] {
        sum.str(&text.to_string());
        sum.u64(fields);
    }
    for p in &probes {
        sum.str(&p.to_string());
    }
    out.checksum = sum.finish();
    out.fact("large_schema", "fields=1000 depth=10 keys=100");
    out.fact("refine_schema", "fields=11 depth=4 keys=10");
    out.fact("probes", PROBES);

    // Set-up: engine preparation for both schemas.  The first repetition
    // builds the engines the loop uses; the others run between rounds (and
    // outside the measured window), so a slow stretch of the host does not
    // decide the figure.
    let prepare = || {
        timed(|| {
            (
                PropagationEngine::new(&large.sigma, &large.universal),
                PropagationEngine::new(&small.sigma, &small.universal),
            )
        })
    };
    let (ms, (engine, _)) = prepare();
    out.setup_s.push(ms / 1e3);

    // Gates: the prepared engine against the one-shot facades on a sample
    // of probes, and the references every timed op is checked against.
    let explained: Vec<_> = probes
        .iter()
        .map(|p| engine.propagation_explained(p))
        .collect();
    for p in probes.iter().step_by(PROBES / 8) {
        gate(
            engine.propagation(p) == xmlprop_core::propagation(&large.sigma, &large.universal, p),
            || format!("prepared propagation of {p} disagrees with the facade"),
        )?;
    }
    let cover = engine.minimum_cover();
    gate(
        cover == xmlprop_core::minimum_cover(&large.sigma, &large.universal),
        || "prepared minimum cover disagrees with the facade".into(),
    )?;
    let reference = refine(&small.sigma, &small.universal);
    let reference_sql = (reference.bcnf_sql(), reference.third_normal_form_sql());

    let mut schedule: Vec<&'static str> = ROUND
        .iter()
        .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
        .collect();
    let mut mix = cfg.rng("mix");
    let mut pick = cfg.rng("pick");
    let mut tracer = cfg.trace.then(Tracer::new);
    closed_loop(cfg.window(), 1, |_| {
        let mut setup_ms = 0.0;
        for _ in 0..SETUPS_PER_ROUND {
            if out.setup_s.len() < SETUPS {
                let (ms, _) = prepare();
                out.setup_s.push(ms / 1e3);
                setup_ms += ms;
            }
        }
        schedule.shuffle(&mut mix);
        for &kind in &schedule {
            let i = pick.gen_range(0..PROBES);
            for &traced in cfg.passes() {
                out.attempted += 1;
                match kind {
                    "propagate" => {
                        let result = match tracer.as_mut().filter(|_| traced) {
                            None => {
                                let (ms, r) = timed(|| engine.propagation_explained(&probes[i]));
                                out.ops.push(Op { kind, ms });
                                r
                            }
                            Some(tr) => {
                                tr.begin_op(kind);
                                tr.time("core.propagate", None, || {
                                    engine.propagation_explained(&probes[i])
                                })
                                .1
                            }
                        };
                        gate(result == explained[i], || {
                            format!("propagation of {} changed between calls", probes[i])
                        })?;
                    }
                    "cover" => {
                        let result = match tracer.as_mut().filter(|_| traced) {
                            None => {
                                let (ms, r) = timed(|| engine.minimum_cover());
                                out.ops.push(Op { kind, ms });
                                r
                            }
                            Some(tr) => {
                                tr.begin_op(kind);
                                let (_, (r, stats)) = tr
                                    .time("core.cover", None, || engine.minimum_cover_with_stats());
                                tr.count("core.implication_calls", stats.implication_calls as f64);
                                tr.count("core.generated_fds", stats.generated_fds as f64);
                                r
                            }
                        };
                        gate(result == cover, || {
                            "minimum cover changed between calls".into()
                        })?;
                    }
                    _ => {
                        let result = match tracer.as_mut().filter(|_| traced) {
                            None => {
                                let (ms, r) = timed(|| refine(&small.sigma, &small.universal));
                                out.ops.push(Op { kind, ms });
                                r
                            }
                            Some(tr) => traced_refine(tr, &small.sigma, &small.universal),
                        };
                        gate(
                            (result.bcnf_sql(), result.third_normal_form_sql()) == reference_sql,
                            || "refined design changed between calls".into(),
                        )?;
                    }
                }
            }
        }
        Ok(setup_ms / 1e3)
    })?;
    out.tracer = tracer;
    Ok(out)
}

/// `refine`, then its inner public steps again as its children: engine
/// preparation, the propagated minimum cover, candidate keys, BCNF
/// decomposition and 3NF synthesis.
fn traced_refine(
    tr: &mut Tracer,
    sigma: &xmlprop_xmlkeys::KeySet,
    rule: &xmlprop_xmltransform::TableRule,
) -> xmlprop_core::RefinedDesign {
    tr.begin_op("refine");
    let (root, design) = tr.time("core.refine", None, || refine(sigma, rule));
    let (_, engine) = tr.time("core.prepare", Some(root), || {
        PropagationEngine::new(sigma, rule)
    });
    let (_, cover) = tr.time("core.cover", Some(root), || engine.minimum_cover());
    let attrs: BTreeSet<String> = rule.schema().attribute_set();
    tr.time("reldb.candidate_keys", Some(root), || {
        candidate_keys(&attrs, &cover)
    });
    let name = rule.schema().name();
    let (_, bcnf) = tr.time("reldb.bcnf", Some(root), || {
        bcnf_decompose(name, &attrs, &cover)
    });
    tr.count("reldb.bcnf_fragments", bcnf.relations.len() as f64);
    tr.time("reldb.synth3nf", Some(root), || {
        synthesize_3nf(name, &attrs, &cover)
    });
    design
}
