//! # sd-templates
//!
//! Template learning and matching for router syslog messages (§4.1.1 of the
//! SyslogDigest paper). [`learner::learn`] builds a [`TemplateSet`] from
//! historical messages by constructing per-error-code sub-type trees of
//! frequent words (masking variable fields via the paper's k-children
//! pruning rule); the set then matches live messages to [`TemplateId`]s for
//! the online pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod learner;
pub mod set;

pub use learner::{learn, learn_par, LearnerConfig};
pub use sd_model::TemplateId;
pub use set::{MaskTok, Template, TemplateSet};
