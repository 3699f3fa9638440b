//! AFL-style edge coverage substrate for the `peachstar` ICS protocol fuzzer.
//!
//! The DAC 2020 Peach\* paper augments a generation-based protocol fuzzer with a
//! coverage feedback loop: lightweight instrumentation is inserted at branch
//! points of the protocol program and records *edge* transitions in a shared
//! bitmap using the classic hash
//!
//! ```text
//! cur_location = <COMPILE_TIME_RANDOM>;
//! shared_mem[cur_location ^ prev_location]++;
//! prev_location = cur_location >> 1;
//! ```
//!
//! In the original system the instrumentation is injected by a `clang` wrapper
//! (an LLVM pass). This crate provides the equivalent in-process substrate for
//! Rust protocol targets: a [`TraceContext`] that targets thread through their
//! parsing code and tick with [`TraceContext::edge`] (or the [`cov_edge!`]
//! macro), a per-execution [`TraceMap`], and a persistent [`CoverageMap`] that
//! accumulates global coverage and answers the question the fuzzer cares
//! about: *did this packet exercise behaviour we have never seen before?*
//!
//! # Example
//!
//! ```
//! use peachstar_coverage::{CoverageMap, TraceContext};
//!
//! // The "target" — a toy parser with two branches.
//! fn parse(input: &[u8], ctx: &mut TraceContext) -> bool {
//!     ctx.edge(0x1001);
//!     if input.first() == Some(&0x2a) {
//!         ctx.edge(0x2002);
//!         true
//!     } else {
//!         ctx.edge(0x3003);
//!         false
//!     }
//! }
//!
//! let mut global = CoverageMap::new();
//!
//! let mut ctx = TraceContext::new();
//! parse(&[0x00], &mut ctx);
//! let first = global.merge(ctx.trace());
//! assert!(first.is_interesting(), "first trace always finds new edges");
//!
//! let mut ctx = TraceContext::new();
//! parse(&[0x00], &mut ctx);
//! let repeat = global.merge(ctx.trace());
//! assert!(!repeat.is_interesting(), "identical trace adds nothing");
//!
//! let mut ctx = TraceContext::new();
//! parse(&[0x2a], &mut ctx);
//! let other = global.merge(ctx.trace());
//! assert!(other.is_interesting(), "the other branch is a new edge");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod map;
mod stats;
mod trace;

pub use map::{CoverageMap, MergeOutcome, MAP_SIZE};
pub use stats::{bucket_for, CoverageStats, HitBucket};
pub use trace::{EdgeId, PathId, SparseTrace, TraceContext, TraceMap};

/// Records an edge on a [`TraceContext`] with a site identifier derived from
/// the source location.
///
/// This macro is the stand-in for the compile-time-random block identifiers
/// that the paper's LLVM pass would insert: the identifier is a hash of the
/// file, line and column of the macro invocation, so every textual call site
/// gets a distinct, stable [`EdgeId`]. Each expansion binds the id to a
/// `const` item, so [`site_id`] runs in the compiler and an edge hit costs
/// one [`TraceContext::edge`] call. Without the `const`, LLVM leaves the
/// hash loop in the decoders, where it walks the source path at run time.
///
/// ```
/// use peachstar_coverage::{cov_edge, TraceContext};
///
/// fn decode(b: u8, ctx: &mut TraceContext) -> u8 {
///     cov_edge!(ctx);
///     if b & 0x80 != 0 {
///         cov_edge!(ctx);
///         b & 0x7f
///     } else {
///         cov_edge!(ctx);
///         b
///     }
/// }
///
/// let mut ctx = TraceContext::new();
/// assert_eq!(decode(0x81, &mut ctx), 1);
/// assert_eq!(ctx.trace().edges_hit(), 2);
/// ```
#[macro_export]
macro_rules! cov_edge {
    // Each `const` sits in a block of its own, so that the caller's `$ctx`
    // and `$discriminator` expressions cannot see the name `SITE`.
    ($ctx:expr) => {
        $ctx.edge({
            const SITE: $crate::EdgeId = $crate::site_id(file!(), line!(), column!());
            SITE
        })
    };
    // Value-discriminated form: stands in for data-dependent dispatch in the
    // original targets (per-zone callbacks, per-type jump tables), where
    // different values of a field reach different basic blocks. The
    // discriminator is folded into the site id so each class is its own edge.
    ($ctx:expr, $discriminator:expr) => {
        $ctx.edge($crate::EdgeId::new(
            {
                const SITE: $crate::EdgeId = $crate::site_id(file!(), line!(), column!());
                SITE
            }
            .raw()
                ^ (($discriminator as u32) & 0x3f).rotate_left(10),
        ))
    };
}

/// Derives a stable pseudo-random site identifier from a source location.
///
/// The id is FNV-1a 64 over the file bytes, then the line and the column as
/// little-endian bytes, folded to 32 bits. It is a `const fn`, so
/// [`cov_edge!`] evaluates it at compile time. The file is hashed from its
/// last `crates/` component on (whole when it has none): `file!()` is
/// whatever path Cargo passed to rustc, which is workspace-relative for
/// workspace members but absolute for a crate built as a path dependency of
/// another workspace, and both forms get the workspace's ids. So no id
/// depends on the directory the code was checked out to.
///
/// Exposed, and callable at run time, so that targets which generate their
/// own instrumentation points (e.g. table-driven parsers) can produce
/// identifiers from strings of their choosing.
///
/// ```
/// let a = peachstar_coverage::site_id("modbus.rs", 10, 5);
/// let b = peachstar_coverage::site_id("modbus.rs", 11, 5);
/// assert_ne!(a, b);
/// ```
#[must_use]
pub const fn site_id(file: &str, line: u32, column: u32) -> EdgeId {
    // FNV-1a: well distributed over the 16-bit block-id space of the trace
    // map.
    let hash = fnv1a(0xcbf2_9ce4_8422_2325, from_last_crates_dir(file.as_bytes()));
    let hash = fnv1a(hash, &line.to_le_bytes());
    let hash = fnv1a(hash, &column.to_le_bytes());
    EdgeId::new((hash ^ (hash >> 32)) as u32)
}

/// `path` from its last `crates/` component on, or all of it when it has
/// none; a `while` loop because a `const fn` cannot use iterators.
const fn from_last_crates_dir(path: &[u8]) -> &[u8] {
    const DIR: &[u8] = b"crates/";
    let mut start = 0;
    let mut i = 0;
    while i + DIR.len() <= path.len() {
        if i == 0 || path[i - 1] == b'/' {
            let mut j = 0;
            while j < DIR.len() && path[i + j] == DIR[j] {
                j += 1;
            }
            if j == DIR.len() {
                start = i;
            }
        }
        i += 1;
    }
    path.split_at(start).1
}

/// Continues an FNV-1a 64 hash over `bytes`; a `while` loop because a
/// `const fn` cannot use iterators.
const fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        i += 1;
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compiles only while `site_id` is a `const fn`, which `cov_edge!`
    /// relies on.
    const PINNED: EdgeId = site_id("a.rs", 1, 1);

    #[test]
    fn site_id_is_stable() {
        assert_eq!(site_id("a.rs", 1, 1), site_id("a.rs", 1, 1));
    }

    #[test]
    fn site_id_values_are_pinned() {
        // Every edge id, and through them every pinned report, depends on
        // these exact values.
        assert_eq!(PINNED.raw(), 0xf524_2b09);
        assert_eq!(site_id("a.rs", 1, 1).raw(), 0xf524_2b09);
        assert_eq!(
            site_id("crates/protocols/src/modbus.rs", 100, 9).raw(),
            0x5b17_b95b
        );
    }

    #[test]
    fn site_id_does_not_depend_on_the_checkout() {
        // A crate built outside the workspace sees absolute paths.
        let workspace = site_id("crates/protocols/src/modbus.rs", 100, 9);
        assert_eq!(site_id("/any/prefix/crates/protocols/src/modbus.rs", 100, 9), workspace);
        assert_eq!(
            site_id("/home/crates/x/crates/protocols/src/modbus.rs", 100, 9),
            workspace,
            "the last `crates/` component counts"
        );
        assert_ne!(site_id("/any/mycrates/protocols/src/modbus.rs", 100, 9), workspace);
    }

    #[test]
    fn site_id_varies_by_location() {
        let ids = [
            site_id("a.rs", 1, 1),
            site_id("a.rs", 2, 1),
            site_id("a.rs", 1, 2),
            site_id("b.rs", 1, 1),
        ];
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                assert_ne!(ids[i], ids[j], "ids {i} and {j} collide");
            }
        }
    }

    #[test]
    fn macro_usable_in_function_scope() {
        let mut ctx = TraceContext::new();
        cov_edge!(ctx);
        cov_edge!(ctx);
        assert_eq!(ctx.trace().edges_hit(), 2);
    }
}
