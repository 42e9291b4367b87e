//! # g2pl-fwdlist
//!
//! The forward-list machinery that turns s-2PL into g-2PL (§3.2–3.4 of
//! the paper).
//!
//! While a data item is checked out of the server, new lock requests for
//! it accumulate in a **collection window** ([`window::CollectionWindow`]).
//! When the item returns, the server closes the window: the pending
//! requests are ordered into a **forward list** ([`list::ForwardList`]) —
//! a sequence of *segments*, each either a group of concurrent readers or
//! a single writer — and the item migrates down the list client-to-client,
//! merging each lock release with the next lock grant.
//!
//! The **deadlock-avoidance optimization** (§3.3) requires all forward
//! lists to order any two transactions the same way. We maintain a global
//! **transaction precedence DAG** ([`dag::PrecedenceDag`]) of the orders
//! already fixed by dispatched lists, and close every window with a stable
//! topological sort against it ([`order::OrderingRule`]).
//!
//! The DAG is stored as its transitive closure: each live transaction has
//! a dense slot and a *closure row*, the bit set of the slots it precedes.
//! "Does `a` precede `b`" is one bit test. A finished transaction's row
//! and column are cleared with no edge insertion, because every order it
//! implied among the survivors is already in their rows. A window close of
//! `n` requests counts each request's in-window predecessors once
//! (`n(n−1)` bit tests), places requests in one pass, and adds at most
//! `n−1` chain edges, each one OR over the rows that reach its tail.

pub mod dag;
pub mod list;
pub mod order;
pub mod window;

pub use dag::PrecedenceDag;
pub use list::{FlEntry, ForwardList, Segment};
pub use order::OrderingRule;
pub use window::CollectionWindow;
