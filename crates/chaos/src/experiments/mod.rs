//! Experiment harnesses that run on chaos-engine data: seed-derived
//! campaigns and the scorecard grid. The other paper experiments live
//! in `trader::experiments`.
//!
//! | ID  | Paper anchor | Claim |
//! |-----|--------------|-------|
//! | E16 | §4.5    | micro-reboot recovery beats whole-system restart MTTR ≥2x |
//! | E18 | §6      | dependability scorecard: fault × workload × recovery coverage matrix |
//! | E19 | §4.1/§6 | active health observatory closes the scorecard's blind cells |

pub mod e16_microreboot_mttr;
pub mod e18_scorecard;
pub mod e19_active_probes;
