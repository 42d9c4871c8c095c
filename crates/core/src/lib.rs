//! Impact-based accounting for fungible HPC allocations — the paper's core
//! contribution.
//!
//! Five accounting methods price a job from the same measured
//! [`ChargeContext`]:
//!
//! | Method | Charges for | Formula |
//! |---|---|---|
//! | `Runtime` | core-time | `d_j · cores` |
//! | `Peak`    | core-time × machine peak | `d_j · cores · peak` |
//! | `Energy`  | measured energy only | `e_j` |
//! | **`EBA`** | energy balanced against potential use | `(e_j + β·d_j·TDP_R) / 2` (Eq. 1) |
//! | **`CBA`** | carbon footprint | `e_j·I_f(t) + d_j·D_f(y)/8760 · share` (Eq. 2) |
//!
//! `Runtime` mirrors Chameleon Cloud node-hours, `Peak` mirrors ACCESS
//! service units, and `Energy` is the naive charge the paper rejects
//! because it rewards underutilizing reserved hardware. EBA and CBA are
//! the paper's proposals.
//!
//! Everything here is **pure**: methods map a context to
//! [`Credits`](green_units::Credits) and
//! never do I/O, which is what makes the five methods directly comparable
//! across the platform, the batch simulator and the user study.
//!
//! [`allocation`] adds the provider side: fungible allocation accounts, a
//! transaction ledger, and admission control. [`exchange`] estimates
//! equivalent allocation sizes across methods (needed whenever an
//! experiment grants "the same" budget under two methods, as in Figure 6
//! and game version V3). [`quote`] bundles per-machine price quotes.

pub mod allocation;
pub mod context;
pub mod exchange;
pub mod methods;
pub mod normalize;
pub mod quote;

pub use allocation::{Allocation, AllocationError, Ledger, Transaction};
pub use context::ChargeContext;
pub use exchange::ExchangeRate;
pub use methods::{AccountingMethod, AffineCharge, MethodKind};
pub use normalize::normalize_min;
pub use quote::{MachineQuote, QuoteSet};
