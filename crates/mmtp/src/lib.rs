//! Integration of XAR with a multi-modal trip planner (paper §IX).
//!
//! Two systematic modes of interaction:
//!
//! * [`aider`] — **Aider mode**: the MMTP plans the trip; for any
//!   *infeasible* segment (walking beyond a threshold, waiting beyond a
//!   threshold) it asks XAR for shared-ride options covering just that
//!   segment, then resumes the plan from the segment's end.
//! * [`enhancer`] — **Enhancer mode**: the MMTP hands XAR the whole
//!   plan; XAR tries ride substitutions over the `C(k+1, 2)`
//!   combinations of source, destination and the `k ≤ 4` intermediate
//!   hops (or the `2k+1` linear fallback for `k > 4`), returning an
//!   enhanced plan with fewer hops and/or less travel time.
//! * [`metrics`] — the look-to-book arithmetic of §X.B.2 (the Go-LA
//!   estimate) and the Figure 6 per-mode quality aggregates.
//!
//! ```
//! use xar_mmtp::look_to_book_ratio;
//!
//! // The paper's Go-LA estimate (§X.B.2): 8 plans per request, 3 hops
//! // per plan, 1-in-10 adoption → 480 searches per booking.
//! assert_eq!(look_to_book_ratio(8, 3, 0.1), 480.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aider;
pub mod enhancer;
pub mod metrics;
pub mod segments;

pub use aider::{aid_plan, AidedPlan, AiderConfig};
pub use enhancer::{enhance_plan, EnhancerConfig, EnhancerOutcome};
pub use metrics::{look_to_book_ratio, ModeQuality};
