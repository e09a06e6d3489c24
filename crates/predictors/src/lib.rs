//! # tcgen-predictors
//!
//! The value predictors TCgen can emit (paper §3) as reusable runtime
//! components:
//!
//! * **LV\[n\]** — last-value predictor: the `n` most recently seen
//!   values of the selected line.
//! * **FCMx\[n\]** — finite context method: the `n` values that followed
//!   the last occurrences of the same `x`-value context, found through a
//!   select-fold-shift-xor hash into a second-level table.
//! * **DFCMx\[n\]** — differential FCM: like FCM but over strides between
//!   consecutive values; the predicted stride is added to the last value,
//!   so it can predict values never seen before.
//!
//! [`FieldBank`] composes the predictors a specification selects for one
//! field with the paper's optimizations — shared last-value tables,
//! shared first-level histories, incremental hashing, the smart update
//! policy — each individually toggleable via [`PredictorOptions`] to
//! reproduce the Table 2 ablation.
//!
//! Table storage is width-specialized (paper §4): every table is generic
//! over a [`TableElement`] and [`FieldBank`] instantiates it with the
//! narrowest unsigned type covering the field's bit width, so a 1-byte
//! field's second-level tables are 8× smaller than `u64`-element tables
//! while emitting byte-identical streams (see [`element`]).
//!
//! ```
//! use tcgen_predictors::{FieldBank, PredictorOptions};
//!
//! let spec = tcgen_spec::parse(
//!     "TCgen Trace Specification;\n64-Bit Field 1 = {: LV[2]};\nPC = Field 1;",
//! )?;
//! let mut bank = FieldBank::new(&spec.fields[0], PredictorOptions::default());
//! bank.update(0, 42);
//! let mut predictions = Vec::new();
//! bank.predict_into(0, &mut predictions);
//! assert_eq!(predictions, vec![42, 0]);
//! # Ok::<(), tcgen_spec::SpecError>(())
//! ```

pub mod bank;
pub mod candidates;
pub mod element;
pub mod fcm;
pub mod hash;
pub mod occupancy;
pub mod policy;
pub mod stride;
pub mod table;

pub use bank::{FieldBank, PredictorOptions, ReplayError, SpecBanks, TypedBank};
pub use candidates::{predictor_candidates, CandidateSpace};
pub use element::TableElement;
pub use fcm::ContextBank;
pub use hash::{fold, HashSpec};
pub use occupancy::{OccTable, Occupancy, TableOccupancy};
pub use policy::UpdatePolicy;
pub use stride::StrideTable;
pub use table::ValueTable;
