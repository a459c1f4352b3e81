//! PIM assembly programs for every Table III kernel.
//!
//! Each builder returns assembly text parameterized by precision (and loop
//! counts where the kernel is statically bounded); the kernels fetch it
//! assembled and psim-linted through [`compiled`], which does that work
//! once per distinct program and process. The sparse kernels follow the
//! paper's Algorithm 2 shape: an unbounded loop closed by `CEXIT`.

use psim_sparse::Precision;
use psyncpim_core::isa::{assemble, VerifiedProgram};
use psyncpim_core::CoreError;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Most programs [`compiled`] keeps. The text of a bounded dense kernel
/// carries its loop counts, so a long-running service can meet many
/// distinct programs; past the cap they still compile, just uncached.
const COMPILED_CAP: usize = 4096;

/// Assemble and psim-lint a kernel program once per process.
///
/// Every fetch of the same text returns the same shared program
/// (`Arc::ptr_eq`), which the engine loads into all of its PUs without
/// linting it again ([`psyncpim_core::Engine::load_verified`]). Builder
/// programs are lint-clean by construction (the `psim_lint` gate sweeps
/// them), so kernels take verified programs whether or not their device
/// validates. Thread-safe: a program two threads compile at once is kept
/// once, and both get the kept copy.
///
/// # Errors
///
/// Assembly errors, or [`CoreError::Verify`] carrying the Error-level
/// diagnostics.
pub fn compiled(text: &str) -> Result<Arc<VerifiedProgram>, CoreError> {
    static CACHE: OnceLock<Mutex<HashMap<String, Arc<VerifiedProgram>>>> = OnceLock::new();
    // A poisoned lock is safe to reuse: the map's only update is one
    // insert of a finished entry, and compiling happens outside the lock.
    let cache = CACHE.get_or_init(Mutex::default);
    if let Some(program) = cache
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(text)
    {
        return Ok(Arc::clone(program));
    }
    let program = Arc::new(VerifiedProgram::new(assemble(text)?)?);
    let mut cache = cache.lock().unwrap_or_else(PoisonError::into_inner);
    if cache.len() >= COMPILED_CAP && !cache.contains_key(text) {
        return Ok(program);
    }
    Ok(Arc::clone(cache.entry(text.to_owned()).or_insert(program)))
}

/// SpMV / SpTRSV-level inner loop (paper Algorithm 2), two chunks per
/// loop iteration: stream (row, col, val) triples, gather the dense
/// operand at `col`, combine with `mul_op`, and scatter-accumulate into
/// the output row with `acc_op` (MUL/ADD for arithmetic SpMV, MUL/RSUB for
/// the SpTRSV column sweep, ADD/MIN for the min-plus semiring of SSSP,
/// ...). The triples live *interleaved* in one region
/// (`[rowsA|colsA|valsA|rowsB|colsB|valsB]` blocks — the paper's "32 B
/// consecutive arrays" layout), so slots 0-5 stream one open DRAM row;
/// the two gathers (slots 6, 8) share the vector row and the two
/// accumulates (slots 10, 11) share the output row: three row activations
/// per eight elements, where a one-chunk loop would pay five per four.
#[must_use]
pub fn sparse_stream_batched(p: Precision, mul_op: &str, acc_op: &str) -> String {
    format!(
        "\
SPMOV  SPVQ0, BANK, ROW, {p}
SPMOV  SPVQ0, BANK, COL, {p}
SPMOV  SPVQ0, BANK, VAL, {p}
SPMOV  SPVQ0, BANK, ROW, {p}
SPMOV  SPVQ0, BANK, COL, {p}
SPMOV  SPVQ0, BANK, VAL, {p}
INDMOV DRF2, SPVQ0, {p}
SPVDV  SPVQ1, SPVQ0, DRF2, {mul_op}, INTER, {p}
INDMOV DRF2, SPVQ0, {p}
SPVDV  SPVQ1, SPVQ0, DRF2, {mul_op}, INTER, {p}
SPVDV  BANK, SPVQ1, BANK, {acc_op}, UNION, {p}
SPVDV  BANK, SPVQ1, BANK, {acc_op}, UNION, {p}
CEXIT  SPVQ0
JUMP   0, 0, 0
"
    )
}

/// SpMM (multi-vector SpMV) stream: the same batched two-chunk schedule as
/// [`sparse_stream_batched`], consumed over the *block-diagonal expansion*
/// of the operands. The host replicates each bank's submatrix entries once
/// per fused vector `v`, shifting indices by `(v·max_out, v·max_in)` into
/// stacked input/output regions, so one kernel launch — one mode-switch
/// cycle, one CRF programming, one completion poll — traverses the matrix
/// for every fused vector. The PU-side program text is identical to the
/// batched stream (the expansion lives entirely in the data layout), so a
/// width-1 SpMM is bit-identical to SpMV by construction.
#[must_use]
pub fn spmm_stream(p: Precision, mul_op: &str, acc_op: &str) -> String {
    sparse_stream_batched(p, mul_op, acc_op)
}

/// A bounded loop back-edge: `JUMP` executes its body `iters` times; a
/// single-iteration loop degenerates to `NOP` (a zero-count JUMP would be
/// the *unconditional* loop of Algorithm 2). Keeping the line in place
/// keeps memory-slot numbering stable.
fn loop_line(target: usize, order: usize, iters: usize) -> String {
    if iters > 1 {
        format!("JUMP {target}, {order}, {}", iters - 1)
    } else {
        "NOP".to_string()
    }
}

/// DCOPY: `y <- x`, `chunks` bursts per bank. Slots: 0 load, 1 store.
#[must_use]
pub fn dcopy(p: Precision, chunks: u16) -> String {
    format!(
        "\
DMOV DRF0, BANK, {p}
DMOV BANK, DRF0, {p}
{loop_line}
EXIT
",
        loop_line = loop_line(0, 1, chunks as usize)
    )
}

/// DSWAP: `x <-> y` via two DRFs. Slots: 0 load x, 1 load y, 2 store x
/// into y's region, 3 store y into x's region.
#[must_use]
pub fn dswap(p: Precision, chunks: u16) -> String {
    format!(
        "\
DMOV DRF0, BANK, {p}
DMOV DRF1, BANK, {p}
DMOV BANK, DRF0, {p}
DMOV BANK, DRF1, {p}
{loop_line}
EXIT
",
        loop_line = loop_line(0, 1, chunks as usize)
    )
}

/// DSCAL: `x <- a x` with α pre-seeded in the SRF. Slots: 0 load, 2 store.
#[must_use]
pub fn dscal(p: Precision, chunks: u16) -> String {
    format!(
        "\
DMOV DRF0, BANK, {p}
SDV  DRF0, DRF0, MUL, {p}
DMOV BANK, DRF0, {p}
{loop_line}
EXIT
",
        loop_line = loop_line(0, 1, chunks as usize)
    )
}

/// DAXPY: `y <- a x + y` with α in the SRF. Slots: 0 load x, 1 load y,
/// 4 store y.
#[must_use]
pub fn daxpy(p: Precision, chunks: u16) -> String {
    format!(
        "\
DMOV DRF0, BANK, {p}
DMOV DRF1, BANK, {p}
SDV  DRF0, DRF0, MUL, {p}
DVDV DRF1, DRF0, DRF1, ADD, {p}
DMOV BANK, DRF1, {p}
{loop_line}
EXIT
",
        loop_line = loop_line(0, 1, chunks as usize)
    )
}

/// DDOT / DNRM2 inner product: partial sum accumulates in the SRF;
/// the host collects per-bank partials. Slots: 0 load x, 1 load y.
#[must_use]
pub fn ddot(p: Precision, chunks: u16) -> String {
    format!(
        "\
DMOV DRF0, BANK, {p}
DMOV DRF1, BANK, {p}
DVDV DRF2, DRF0, DRF1, MUL, {p}
REDUCE DRF2, ADD, {p}
{loop_line}
EXIT
",
        loop_line = loop_line(0, 1, chunks as usize)
    )
}

/// Element-wise dense binary op `z <- x (op) y` (the DVDV workhorse used
/// by graph-app masks and solver updates). Slots: 0 load x, 1 load y,
/// 3 store z.
#[must_use]
pub fn dvdv(p: Precision, op: &str, chunks: u16) -> String {
    format!(
        "\
DMOV DRF0, BANK, {p}
DMOV DRF1, BANK, {p}
DVDV DRF1, DRF0, DRF1, {op}, {p}
DMOV BANK, DRF1, {p}
{loop_line}
EXIT
",
        loop_line = loop_line(0, 1, chunks as usize)
    )
}

/// GATHER: sparse vector from dense (`x_sp <- y_d`). Slot 0 reads the
/// dense region; slot 1 force-writes the queue as (row, col, val) triples.
#[must_use]
pub fn gather(p: Precision, chunks: u16) -> String {
    format!(
        "\
GTHSCT SPVQ0, BANK, ZERO, {p}
SPFW   SPVQ0, {p}
{loop_line}
EXIT
",
        loop_line = loop_line(0, 1, chunks as usize)
    )
}

/// SCATTER: dense vector from sparse (`y_d <- x_sp`). Slots 0–2 stream the
/// sparse triples, slot 4 scatters into the dense region.
#[must_use]
pub fn scatter(p: Precision) -> String {
    format!(
        "\
SPMOV  SPVQ0, BANK, ROW, {p}
SPMOV  SPVQ0, BANK, COL, {p}
SPMOV  SPVQ0, BANK, VAL, {p}
GTHSCT BANK, SPVQ0, ZERO, {p}
CEXIT  SPVQ0
JUMP   0, 0, 0
"
    )
}

/// SpAXPY: `y_d <- a x_sp + y_d` — stream sparse triples, scale by α (SRF),
/// scatter-accumulate. Slots 0–2 stream, 4 accumulates.
#[must_use]
pub fn spaxpy(p: Precision) -> String {
    format!(
        "\
SPMOV  SPVQ0, BANK, ROW, {p}
SPMOV  SPVQ0, BANK, COL, {p}
SPMOV  SPVQ0, BANK, VAL, {p}
SSPV   SPVQ1, SPVQ0, MUL, {p}
SPVDV  BANK, SPVQ1, BANK, ADD, UNION, {p}
CEXIT  SPVQ0
JUMP   0, 0, 0
"
    )
}

/// SpDOT: `s <- x_sp^T y_d` — stream triples, gather y at the indices,
/// multiply, and force-write the product triples for the host reduction
/// (SpFW drains all three sub-queues, keeping them in lockstep).
#[must_use]
pub fn spdot(p: Precision) -> String {
    format!(
        "\
SPMOV  SPVQ0, BANK, ROW, {p}
SPMOV  SPVQ0, BANK, COL, {p}
SPMOV  SPVQ0, BANK, VAL, {p}
INDMOV DRF2, SPVQ0, {p}
SPVDV  SPVQ1, SPVQ0, DRF2, MUL, INTER, {p}
SPFW   SPVQ1, {p}
CEXIT  SPVQ0
JUMP   0, 0, 0
"
    )
}

/// DGEMV row block: for each of `rows` matrix rows (per bank), stream
/// `chunks` bursts of the row against the replicated x, accumulating the
/// dot product in the SRF, then append it to the output region and clear
/// the accumulator. Slots: 0 load A chunk, 1 load x chunk, 5 store the
/// row result.
#[must_use]
pub fn dgemv(p: Precision, rows: u16, chunks: u16) -> String {
    format!(
        "\
DMOV DRF0, BANK, {p}
DMOV DRF1, BANK, {p}
DVDV DRF2, DRF0, DRF1, MUL, {p}
REDUCE DRF2, ADD, {p}
{inner_loop}
DMOV BANK, SRF, {p}
DVDV DRF2, DRF2, DRF2, SUB, {p}
DMOV SRF, DRF2, {p}
{outer_loop}
EXIT
",
        inner_loop = loop_line(0, 1, chunks as usize),
        outer_loop = loop_line(0, 2, rows as usize),
    )
}

/// One program of [`builder_sweep`]: the builder that wrote it, the
/// arguments it was given and its text.
#[derive(Debug, Clone)]
pub struct SweepProgram {
    /// Builder function name.
    pub builder: &'static str,
    /// The builder's non-precision arguments (`MULxADD`, `chunks=4`, ...).
    pub variant: String,
    /// Element precision.
    pub precision: Precision,
    /// Assembly text.
    pub text: String,
}

/// Every builder across its argument envelope: each precision, the full
/// cross of the six semiring ops, chunk counts from the degenerate (NOP)
/// loop to the largest the 10-bit JUMP immediate holds, and the dense
/// Level-2 loop nests — 798 programs. The `psim_lint` gate lints each
/// one; this module's tests compile each one.
#[must_use]
pub fn builder_sweep() -> Vec<SweepProgram> {
    const OPS: [&str; 6] = ["ADD", "SUB", "MUL", "MIN", "MAX", "RSUB"];
    const CHUNKS: [u16; 3] = [1, 4, 1023];
    let mut sweep = Vec::new();
    for &p in &Precision::ALL {
        let mut add = |builder, variant: String, text| {
            sweep.push(SweepProgram {
                builder,
                variant,
                precision: p,
                text,
            });
        };
        for mul in OPS {
            for acc in OPS {
                let v = format!("{mul}x{acc}");
                let batched = sparse_stream_batched(p, mul, acc);
                add("sparse_stream_batched", v.clone(), batched);
                add("spmm_stream", v, spmm_stream(p, mul, acc));
            }
        }
        for c in CHUNKS {
            let cv = format!("chunks={c}");
            add("dcopy", cv.clone(), dcopy(p, c));
            add("dswap", cv.clone(), dswap(p, c));
            add("dscal", cv.clone(), dscal(p, c));
            add("daxpy", cv.clone(), daxpy(p, c));
            add("ddot", cv.clone(), ddot(p, c));
            add("gather", cv.clone(), gather(p, c));
            for op in OPS {
                add("dvdv", format!("{op},{cv}"), dvdv(p, op, c));
            }
        }
        add("scatter", "-".to_string(), scatter(p));
        add("spaxpy", "-".to_string(), spaxpy(p));
        add("spdot", "-".to_string(), spdot(p));
        for (rows, chunks) in [(1u16, 1u16), (4, 8), (1023, 1023)] {
            let v = format!("rows={rows},chunks={chunks}");
            add("dgemv", v, dgemv(p, rows, chunks));
        }
    }
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_programs_assemble() {
        // ... and pass psim-lint, fetched through the compiled cache.
        let sweep = builder_sweep();
        assert_eq!(sweep.len(), 798);
        for p in &sweep {
            let program = compiled(&p.text).unwrap_or_else(|e| panic!("{e}\n{}", p.text));
            assert_eq!(program.program(), &assemble(&p.text).unwrap());
        }
    }

    #[test]
    fn compiled_programs_are_shared_per_text() {
        let text = sparse_stream_batched(Precision::Fp64, "MUL", "ADD");
        let a = compiled(&text).unwrap();
        let b = compiled(&text).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "a second fetch must not compile again");
        let rsub = compiled(&sparse_stream_batched(Precision::Fp64, "MUL", "RSUB")).unwrap();
        assert!(!Arc::ptr_eq(&a, &rsub));
        // Threads racing on a program nobody compiled yet all share one.
        let fetched: Vec<Arc<VerifiedProgram>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| compiled(&dcopy(Precision::Fp32, 7)).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(fetched.iter().all(|p| Arc::ptr_eq(p, &fetched[0])));
    }

    #[test]
    fn compiled_refuses_unverifiable_text() {
        let err = compiled("SPFW SPVQ0, FP64\nEXIT\n").unwrap_err();
        assert!(matches!(err, CoreError::Verify { .. }), "{err}");
        assert!(compiled("BOGUS X\n").is_err());
    }

    #[test]
    fn batched_stream_schedule_shape() {
        let prog = assemble(&sparse_stream_batched(Precision::Fp64, "MUL", "ADD")).unwrap();
        assert!(prog.is_conditional_loop());
        assert_eq!(
            prog.command_schedule().unwrap(),
            vec![0, 1, 2, 3, 4, 5, 6, 8, 10, 11]
        );
    }

    #[test]
    fn spmm_stream_matches_batched_schedule() {
        // The SpMM program must stay textually identical to the batched
        // stream: width-1 bit-identity of the SpMM kernel depends on it.
        for p in [Precision::Fp64, Precision::Fp32, Precision::Int8] {
            assert_eq!(
                spmm_stream(p, "MUL", "ADD"),
                sparse_stream_batched(p, "MUL", "ADD")
            );
        }
        let prog = assemble(&spmm_stream(Precision::Fp64, "MUL", "MIN")).unwrap();
        assert!(prog.is_conditional_loop());
        assert_eq!(
            prog.command_schedule().unwrap(),
            vec![0, 1, 2, 3, 4, 5, 6, 8, 10, 11]
        );
    }

    #[test]
    fn dense_programs_fit_control_register() {
        let prog = assemble(&dgemv(Precision::Fp64, 100, 100)).unwrap();
        assert!(prog.len() <= 32);
    }
}
