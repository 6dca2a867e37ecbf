//! Family-by-name instance construction: the serializable [`Family`] enum
//! names every generator of this crate, and [`build_family`] turns a
//! `(family, n, seed)` triple into a concrete instance — the constructor the
//! JSONL wire protocol of `oblisched-server` uses to express every scenario
//! as data.
//!
//! # Example
//!
//! ```
//! use oblisched_instances::{build_family, Family};
//!
//! let inst = build_family(Family::Scaling, 50, 42)?;
//! assert_eq!(inst.len(), 50);
//! // Seed-pinned: the same triple always produces the same instance.
//! assert_eq!(inst, build_family(Family::Scaling, 50, 42)?);
//! # Ok::<(), oblisched_instances::FamilyError>(())
//! ```

use crate::adversarial::{adversarial_for, max_supported_n};
use crate::nested::nested_chain;
use crate::random::{clustered_deployment, uniform_deployment, DeploymentConfig};
use crate::scale::{scaling_line, scaling_uniform};
use oblisched_metric::{EuclideanSpace, LineMetric};
use oblisched_sinr::{Instance, ObliviousPower, SinrParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt;

/// The instance families wire requests can name. Every variant is seed-pinned
/// and deterministic: the same `(family, n, seed)` triple always produces
/// the same instance (`line`, `nested` and `adversarial` are fully
/// deterministic and ignore the seed).
///
/// Serializes as its lowercase name (`"uniform"`, `"scaling"`, …) — the
/// spelling wire requests and the README use — rather than the Rust variant
/// identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// A uniform random deployment at the experiment harness's density:
    /// links of length 1–15 in a square of side `40·√n`.
    Uniform,
    /// A clustered random deployment at the same density: `max(4, n/256)`
    /// hot spots of radius 30.
    Clustered,
    /// The deterministic line family: `n` unit links separated by gaps of 6
    /// length units.
    Line,
    /// The §1.2 nested chain `u_i = −2^i`, `v_i = 2^i` on which the
    /// square-root assignment separates from uniform and linear.
    Nested,
    /// The Theorem 1 adversarial directed family targeting the uniform
    /// assignment (at the default `α = 3`, `β = 1`), on which any oblivious
    /// schedule needs `Ω(n)` colors while power control needs `O(1)`.
    Adversarial,
    /// The constant-density scaling family (square of side `10·√n`) — the
    /// dense regime the incremental engine and the sparse backend target.
    Scaling,
}

impl Family {
    /// All families, in declaration order.
    pub fn all() -> [Family; 6] {
        [
            Family::Uniform,
            Family::Clustered,
            Family::Line,
            Family::Nested,
            Family::Adversarial,
            Family::Scaling,
        ]
    }

    /// Parses a lowercase family name (`"uniform"`, `"clustered"`,
    /// `"line"`, `"nested"`, `"adversarial"`, `"scaling"`).
    pub fn parse(s: &str) -> Option<Family> {
        match s {
            "uniform" => Some(Family::Uniform),
            "clustered" => Some(Family::Clustered),
            "line" => Some(Family::Line),
            "nested" => Some(Family::Nested),
            "adversarial" => Some(Family::Adversarial),
            "scaling" => Some(Family::Scaling),
            _ => None,
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Family::Uniform => write!(f, "uniform"),
            Family::Clustered => write!(f, "clustered"),
            Family::Line => write!(f, "line"),
            Family::Nested => write!(f, "nested"),
            Family::Adversarial => write!(f, "adversarial"),
            Family::Scaling => write!(f, "scaling"),
        }
    }
}

impl serde::Serialize for Family {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_string())
    }
}

impl<'de> serde::Deserialize<'de> for Family {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct FamilyVisitor;

        impl<'de> serde::de::Visitor<'de> for FamilyVisitor {
            type Value = Family;

            fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
                formatter.write_str("a lowercase family name")
            }

            fn visit_str<E: serde::de::Error>(self, v: &str) -> Result<Family, E> {
                Family::parse(v).ok_or_else(|| {
                    E::unknown_variant(
                        v,
                        &[
                            "uniform",
                            "clustered",
                            "line",
                            "nested",
                            "adversarial",
                            "scaling",
                        ],
                    )
                })
            }
        }

        deserializer.deserialize_str(FamilyVisitor)
    }
}

/// An instance built by [`build_family`]: the families live in two metric
/// spaces, so the constructor returns whichever the family uses. Both are
/// planar, so every scheduling entry point accepts either.
#[derive(Debug, Clone, PartialEq)]
pub enum FamilyInstance {
    /// A two-dimensional Euclidean deployment.
    Planar(Instance<EuclideanSpace<2>>),
    /// A one-dimensional (line-metric) instance.
    Line(Instance<LineMetric>),
}

impl FamilyInstance {
    /// The number of requests.
    pub fn len(&self) -> usize {
        match self {
            FamilyInstance::Planar(inst) => inst.len(),
            FamilyInstance::Line(inst) => inst.len(),
        }
    }

    /// Returns `true` if the instance has no requests.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Why a `(family, n, seed)` triple cannot be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyError {
    /// Every family needs at least one request.
    EmptyFamily {
        /// The requested family.
        family: Family,
    },
    /// The adversarial construction is doubly exponential in `n` and only
    /// small sizes fit the `f64` range.
    UnsupportedSize {
        /// The requested family.
        family: Family,
        /// The requested size.
        n: usize,
        /// The largest size the construction supports.
        max: usize,
    },
}

impl fmt::Display for FamilyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FamilyError::EmptyFamily { family } => {
                write!(f, "family {family} needs at least one request, got n = 0")
            }
            FamilyError::UnsupportedSize { family, n, max } => write!(
                f,
                "family {family} supports at most n = {max} (the construction leaves f64 range), \
                 got n = {n}"
            ),
        }
    }
}

impl std::error::Error for FamilyError {}

/// The SINR parameters the adversarial family is built against (`α = 3`,
/// `β = 1` — the harness defaults).
fn adversarial_params() -> SinrParams {
    SinrParams::default()
}

/// Builds the named family at size `n`. The random families (`uniform`,
/// `clustered`, `scaling`) pin their RNG to `seed`; the deterministic ones
/// ignore it.
///
/// # Errors
///
/// [`FamilyError::EmptyFamily`] for `n == 0`, and
/// [`FamilyError::UnsupportedSize`] when the adversarial construction
/// cannot represent `n` pairs in `f64`.
pub fn build_family(family: Family, n: usize, seed: u64) -> Result<FamilyInstance, FamilyError> {
    if n == 0 {
        return Err(FamilyError::EmptyFamily { family });
    }
    Ok(match family {
        Family::Uniform => {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            FamilyInstance::Planar(uniform_deployment(harness_config(n), &mut rng))
        }
        Family::Clustered => {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let clusters = (n / 256).max(4);
            FamilyInstance::Planar(clustered_deployment(
                harness_config(n),
                clusters,
                30.0,
                &mut rng,
            ))
        }
        Family::Line => FamilyInstance::Line(scaling_line(n)),
        Family::Nested => {
            // The generator requires 2^n finite (its outermost radius),
            // which holds only for n <= 1023 — the f64 exponent range; the
            // bound is spelled out rather than computed because
            // log2(f64::MAX) rounds up to 1024.0. Past it the generator
            // would assert; report the cap as a typed error instead (same
            // contract as the adversarial family).
            const NESTED_MAX: usize = 1023;
            if n > NESTED_MAX {
                return Err(FamilyError::UnsupportedSize {
                    family,
                    n,
                    max: NESTED_MAX,
                });
            }
            FamilyInstance::Line(nested_chain(n, 2.0))
        }
        Family::Adversarial => {
            let params = adversarial_params();
            let max = max_supported_n(&ObliviousPower::Uniform, &params);
            if n > max {
                return Err(FamilyError::UnsupportedSize { family, n, max });
            }
            FamilyInstance::Line(
                adversarial_for(&ObliviousPower::Uniform, &params, n).into_instance(),
            )
        }
        Family::Scaling => FamilyInstance::Planar(scaling_uniform(n, seed)),
    })
}

/// The deployment density of the `uniform`/`clustered` families: the
/// experiment harness's convention (side `40·√n`, links 1–15), sparser than
/// the scaling family's `10·√n`.
fn harness_config(n: usize) -> DeploymentConfig {
    DeploymentConfig {
        num_requests: n,
        side: 40.0 * (n as f64).sqrt(),
        min_link: 1.0,
        max_link: 15.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_builds_and_is_seed_pinned() {
        for family in Family::all() {
            let n = 12;
            let a = build_family(family, n, 3).unwrap();
            let b = build_family(family, n, 3).unwrap();
            assert_eq!(a, b, "{family} must be deterministic");
            assert_eq!(a.len(), n);
            assert!(!a.is_empty());
        }
    }

    #[test]
    fn random_families_depend_on_the_seed() {
        for family in [Family::Uniform, Family::Clustered, Family::Scaling] {
            let a = build_family(family, 16, 1).unwrap();
            let b = build_family(family, 16, 2).unwrap();
            assert_ne!(a, b, "{family} must vary with the seed");
        }
    }

    #[test]
    fn names_round_trip() {
        for family in Family::all() {
            assert_eq!(Family::parse(&family.to_string()), Some(family));
        }
        assert_eq!(Family::parse("bogus"), None);
    }

    #[test]
    fn zero_and_oversized_requests_are_typed_errors() {
        assert_eq!(
            build_family(Family::Uniform, 0, 1),
            Err(FamilyError::EmptyFamily {
                family: Family::Uniform
            })
        );
        let max = max_supported_n(&ObliviousPower::Uniform, &adversarial_params());
        let err = build_family(Family::Adversarial, max + 1, 0).unwrap_err();
        assert!(matches!(err, FamilyError::UnsupportedSize { .. }));
        assert!(err.to_string().contains("at most"));
        // std::error::Error is implemented, so `?` works in job-runner code.
        let _: &dyn std::error::Error = &err;
        // The nested chain's doubly-exponential coordinates are capped the
        // same way: a typed error, never the generator's assert.
        assert!(build_family(Family::Nested, 1023, 0).is_ok());
        assert!(matches!(
            build_family(Family::Nested, 1024, 0),
            Err(FamilyError::UnsupportedSize { .. })
        ));
    }
}
