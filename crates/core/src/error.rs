//! Error type for the core crate.

use std::fmt;

/// Errors from program construction, assembly, or engine execution.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// A program exceeds the 32-entry control register (Table VIII).
    ProgramTooLong {
        /// Number of instructions supplied.
        len: usize,
    },
    /// An instruction field is out of its encodable range.
    Encode(String),
    /// A 32-bit word does not decode to a valid instruction.
    Decode(u32, String),
    /// Assembly-text parse failure.
    Asm {
        /// 1-based source line.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// A memory instruction slot has no bound region, or a region id is
    /// unknown.
    Binding(String),
    /// The engine detected an inconsistency (e.g. kernel never exits).
    Execution(String),
    /// A kernel operand does not fit the matrix it is applied to (e.g. a
    /// vector whose length differs from the dimension it multiplies).
    Operand(String),
    /// psim-lint found Error-level diagnostics (see `isa::verify`).
    Verify {
        /// The Error-level findings, ordered by slot.
        diagnostics: Vec<crate::isa::Diagnostic>,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ProgramTooLong { len } => {
                write!(
                    f,
                    "program has {len} instructions but the control register holds 32"
                )
            }
            CoreError::Encode(msg) => write!(f, "encode error: {msg}"),
            CoreError::Decode(word, msg) => write!(f, "cannot decode {word:#010x}: {msg}"),
            CoreError::Asm { line, msg } => write!(f, "asm error at line {line}: {msg}"),
            CoreError::Binding(msg) => write!(f, "binding error: {msg}"),
            CoreError::Execution(msg) => write!(f, "execution error: {msg}"),
            CoreError::Operand(msg) => write!(f, "operand error: {msg}"),
            CoreError::Verify { diagnostics } => {
                write!(f, "program failed verification: ")?;
                for (i, d) in diagnostics.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(CoreError::ProgramTooLong { len: 40 }
            .to_string()
            .contains("40"));
        assert!(CoreError::Decode(7, "bad opcode".into())
            .to_string()
            .contains("0x00000007"));
    }

    #[test]
    fn is_send_sync_error() {
        fn check<T: std::error::Error + Send + Sync>() {}
        check::<CoreError>();
    }
}
