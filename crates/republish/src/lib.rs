//! # acpp-republish — anonymized re-publication of evolving microdata
//!
//! The paper's Section IX names re-publication after updates as the key
//! open problem: "we must prevent an adversary from inferring sensitive
//! data by leveraging the correlation among subsequent releases". This
//! crate builds that extension on top of the PG pipeline:
//!
//! * [`delta`] — insert/delete update batches over microdata;
//! * [`composition`] — the *averaging attack* that breaks naive
//!   re-publication: with fresh perturbation per release, the adversary
//!   multiplies likelihoods across releases and drives the posterior of
//!   the true value toward 1;
//! * [`persistent`] — the countermeasure: memoized (persistent)
//!   perturbation per owner, so an unchanged tuple contributes the *same*
//!   observation to every release and composition gains nothing;
//! * [`series`] — a [`series::Republisher`] that publishes a sequence of
//!   PG releases over evolving microdata using persistent perturbation,
//!   with a prepare/commit split so cross-release state advances only
//!   after a release durably lands;
//! * [`durable`] — a [`durable::SeriesPublisher`] committing each release
//!   and the series bookkeeping atomically (together or not at all).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod composition;
pub mod delta;
pub mod durable;
pub mod error;
pub mod persistent;
pub mod series;

pub use composition::fresh_noise_posterior;
pub use delta::{apply_updates, parse_updates_csv, Update};
pub use durable::{SeriesPublisher, SeriesRelease};
pub use error::RepublishError;
pub use persistent::{PersistentChannel, StagedDraws};
pub use series::{PreparedRelease, Republisher};
