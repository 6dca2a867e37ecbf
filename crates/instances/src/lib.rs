//! Workload and instance generators for the `oblisched` workspace.
//!
//! Every experiment in the paper reduction is driven by one of three kinds of
//! synthetic workloads:
//!
//! * **Random deployments** ([`random`]) — requests with endpoints placed in
//!   a square (uniformly or in clusters), the standard "wireless network in a
//!   field" scenario motivating the MAC-layer problem.
//! * **Nested chains** ([`nested`]) — the instance family from §1.2 of the
//!   paper (`u_i = −b^i`, `v_i = b^i`) on which uniform and linear power
//!   assignments can schedule only `O(1)` requests per color while the
//!   square-root assignment schedules a constant fraction.
//! * **Adversarial directed families** ([`adversarial`]) — the Theorem 1
//!   construction that defeats *any* oblivious power assignment in the
//!   directed variant while an optimal (non-oblivious) assignment needs only
//!   `O(1)` colors.
//! * **Scaling families** ([`scale`]) — seed-pinned, density-normalised
//!   large-`n` variants of the above (`n = 10⁴–10⁵`), the workloads the
//!   incremental interference engine of `oblisched_sinr` makes tractable.
//! * **Churn workloads** ([`churn`]) — seed-pinned arrival/departure traces
//!   over the scaling deployments, the input of the dynamic scheduler
//!   (`oblisched::dynamic`).
//!
//! The [`family`] module names all of these behind one serializable
//! [`Family`] enum with a `(family, n, seed)` constructor
//! ([`build_family`]), so wire requests can select workloads as data.
//!
//! All generators are deterministic given a seeded RNG, and every instance
//! they produce is a valid [`oblisched_sinr::Instance`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod churn;
pub mod family;
pub mod line;
pub mod nested;
pub mod random;
pub mod scale;

pub use adversarial::{adversarial_for, max_supported_n, AdversarialInstance};
pub use churn::{
    churn_clustered, churn_clustered_10k, churn_clustered_50k, churn_trace_for, churn_uniform,
    churn_uniform_10k, churn_uniform_50k, large_churn_shape, ChurnEvent, ChurnTrace,
};
pub use family::{build_family, Family, FamilyError, FamilyInstance};
pub use line::{evenly_spaced_line, exponential_line};
pub use nested::nested_chain;
pub use random::{clustered_deployment, random_matching, uniform_deployment, DeploymentConfig};
pub use scale::{
    scaling_clustered, scaling_clustered_10k, scaling_clustered_50k, scaling_config, scaling_line,
    scaling_line_10k, scaling_line_50k, scaling_uniform, scaling_uniform_10k, scaling_uniform_50k,
    LARGE_SCALE_SIZES,
};

/// Finalises a generator-built instance. Every generator in this crate
/// constructs links with strictly positive length, so
/// [`oblisched_sinr::Instance::new`] cannot reject its output; if it ever
/// does, that is a generator bug, reported as the violated invariant
/// rather than swallowed behind an `expect` on the error path.
pub(crate) fn generated<M: oblisched_metric::MetricSpace>(
    built: Result<oblisched_sinr::Instance<M>, oblisched_sinr::SinrError>,
    invariant: &str,
) -> oblisched_sinr::Instance<M> {
    match built {
        Ok(instance) => instance,
        Err(e) => unreachable!("generator bug — {invariant}: {e}"),
    }
}
