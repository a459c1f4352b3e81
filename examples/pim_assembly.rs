//! Hand-written PIM assembly: author a kernel in the pSyncPIM ISA (paper
//! §IV, Figure 5), assemble it, inspect its encoding and host command
//! schedule, and run it on one processing unit against bank memory.
//!
//! ```sh
//! cargo run --release --example pim_assembly
//! ```

use psyncpim::core::isa::{assemble, disassemble};
use psyncpim::core::memory::BankMemory;
use psyncpim::core::ProcessingUnit;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A hand-written kernel: y <- 3*x + y over 8 bursts (DAXPY, Table III).
    let asm = r"
; DAXPY: alpha preloaded in SRF by the host
DMOV DRF0, BANK, FP64     ; slot 0: load x chunk
DMOV DRF1, BANK, FP64     ; slot 1: load y chunk
SDV  DRF0, DRF0, MUL, FP64 ; x *= alpha
DVDV DRF1, DRF0, DRF1, ADD, FP64
DMOV BANK, DRF1, FP64     ; slot 4: store y chunk
JUMP 0, 1, 7              ; 8 chunks total
EXIT
";
    let program = assemble(asm)?;
    println!("assembled {} instructions:", program.len());
    for (i, word) in program.encode()?.iter().enumerate() {
        println!("  [{i:2}] {word:#010x}");
    }
    println!("\ncanonical disassembly:\n{}", disassemble(&program));
    println!(
        "host command schedule per run: {:?} (slot indices)",
        program.command_schedule()?
    );

    // Execute on a single processing unit.
    let n = 32; // 8 chunks of 4 FP64 lanes
    let mut mem = BankMemory::new(1024);
    let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let y: Vec<f64> = (0..n).map(|i| 100.0 + i as f64).collect();
    let rx = mem.alloc(8, x.clone());
    let ry = mem.alloc(8, y.clone());
    let mut pu = ProcessingUnit::new();
    pu.load_kernel(
        program.clone(),
        vec![Some(rx), Some(ry), None, None, Some(ry), None, None],
    )?;
    pu.set_srf(3.0);
    for &slot in &program.command_schedule()? {
        pu.on_command(slot, &mut mem);
    }
    pu.run_free(&mut mem);
    assert!(pu.exited());

    let got = mem.region(ry).data();
    let want: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| 3.0 * xi + yi).collect();
    assert_eq!(got, want.as_slice());
    println!(
        "executed on one PU: y[0..4] = {:?} (expected {:?})",
        &got[..4],
        &want[..4]
    );
    println!(
        "stats: {} instructions, {} memory ops, {} PU cycles busy",
        pu.stats().instructions,
        pu.stats().mem_ops,
        pu.stats().busy_cycles
    );
    Ok(())
}
