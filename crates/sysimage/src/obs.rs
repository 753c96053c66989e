//! Collection-phase metrics: what the crawler (here: the builder-based
//! corpus generator) gathered per system image.
//!
//! All metrics are [`Counter`]s or a build-time [`Timer`]; counts are taken
//! from the finished image at [`build`](crate::SystemImageBuilder::build),
//! so they are deterministic for a given corpus regardless of builder call
//! order.

use encore_obs::{Counter, Metric, Phase, Timer};

/// Images finished via `SystemImageBuilder::build`.
pub static IMAGES_BUILT: Counter = Counter::new("collect.images.built");
/// VFS nodes (directories, files, symlinks) across built images.
pub static VFS_NODES: Counter = Counter::new("collect.vfs.nodes");
/// User accounts across built images.
pub static USERS: Counter = Counter::new("collect.accounts.users");
/// Groups across built images.
pub static GROUPS: Counter = Counter::new("collect.accounts.groups");
/// Registered service ports across built images.
pub static SERVICES: Counter = Counter::new("collect.services.registered");
/// Environment variables across built (running) images.
pub static ENV_VARS: Counter = Counter::new("collect.env.vars");
/// Wall time spent in `build` finalization.
pub static BUILD_TIME: Timer = Timer::new("collect.build.time");

/// The collection phase: every instrument above, in report order.
pub static COLLECT: Phase = Phase {
    name: "collect",
    metrics: &[
        Metric::Counter(&IMAGES_BUILT),
        Metric::Counter(&VFS_NODES),
        Metric::Counter(&USERS),
        Metric::Counter(&GROUPS),
        Metric::Counter(&SERVICES),
        Metric::Counter(&ENV_VARS),
        Metric::Timer(&BUILD_TIME),
    ],
};
