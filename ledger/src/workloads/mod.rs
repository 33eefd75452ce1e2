//! The six workloads. Each stresses different layers, so that for any
//! optimisation one workload exercises its mechanism and another bypasses
//! it; the README beside this crate records why each was chosen.

pub mod cold_open;
pub mod cyclic_join;
pub mod emit_request;
pub mod selective_request;
pub mod serving_mix;
pub mod update_read;

use crate::env::Env;
use crate::harness::{run_traced, run_untraced, Outcome, Workload};

/// Run the workload called `name`, traced or not; `None` for a name that
/// is not a workload.
pub fn run(name: &str, env: &Env, traced: bool) -> Option<Outcome> {
    fn go<W: Workload>(env: &Env, traced: bool) -> Outcome {
        if traced {
            run_traced::<W>(env)
        } else {
            run_untraced::<W>(env)
        }
    }
    Some(match name {
        "cyclic_join" => go::<cyclic_join::CyclicJoin>(env, traced),
        "selective_request" => go::<selective_request::SelectiveRequest>(env, traced),
        "emit_request" => go::<emit_request::EmitRequest>(env, traced),
        "serving_mix" => go::<serving_mix::ServingMix>(env, traced),
        "update_read" => go::<update_read::UpdateRead>(env, traced),
        "cold_open" => go::<cold_open::ColdOpen>(env, traced),
        _ => return None,
    })
}
