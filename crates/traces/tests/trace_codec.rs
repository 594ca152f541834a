//! Integration tests for the `.psatrace` codec and the workload-source
//! contract: synthetic-vs-replay stream equality, the filler batching
//! contract on both sources, cursor save/restore, and the corruption
//! taxonomy (every damaged file is a typed error, never a panic).

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

use psa_cpu::{Instr, InstrKind};
use psa_traces::format::{TraceWriter, TRACE_VERSION};
use psa_traces::{
    catalog, format, TraceError, TraceGenerator, TraceReader, TraceRef, WorkloadRef, WorkloadSource,
};

/// A unique temp path per test; cleaned up by [`TempTrace`]'s Drop.
struct TempTrace(PathBuf);

impl TempTrace {
    fn new(tag: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "psa_trace_codec_{}_{}.psatrace",
            std::process::id(),
            tag
        ));
        TempTrace(p)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for TempTrace {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Record `n` instructions of a catalog workload into a trace file.
fn record_workload(path: &str, workload: &str, seed: u64, n: u64) -> u64 {
    let spec = catalog::workload(workload).expect("in catalog");
    let mut gen = TraceGenerator::new(spec, seed);
    let mut w = TraceWriter::create(std::path::Path::new(path), spec.name, spec.huge_fraction)
        .expect("create temp trace");
    for _ in 0..n {
        let instr = gen.next().expect("infinite");
        w.push_instr(&instr).expect("write record");
    }
    let header = w.finish().expect("finish trace");
    header.instructions
}

fn open_reader(path: &str) -> TraceReader {
    let tref = TraceRef::open(path).expect("verified ref");
    TraceReader::open(&tref).expect("reader opens")
}

#[test]
fn replay_matches_generator_bit_for_bit() {
    let tmp = TempTrace::new("replay_eq");
    let n = 5000;
    let wrote = record_workload(tmp.path(), "mcf", 99, n);
    assert_eq!(wrote, n);
    let spec = catalog::workload("mcf").unwrap();
    let mut gen = TraceGenerator::new(spec, 99);
    let mut rdr = open_reader(tmp.path());
    for i in 0..n {
        let want = gen.next().unwrap();
        let got = rdr.next_instr().expect("replay within first pass");
        assert_eq!(got, want, "instruction {i} diverged");
    }
    // The stream wraps and keeps going — no end-of-input, ever.
    for _ in 0..100 {
        rdr.next_instr()
            .expect("stream is infinite across the wrap");
    }
    assert_eq!(rdr.wraps(), 1);
}

#[test]
fn wrapped_pass_repeats_the_record_stream() {
    let tmp = TempTrace::new("wrap_repeat");
    let n = 700;
    record_workload(tmp.path(), "lbm", 5, n);
    let mut a = open_reader(tmp.path());
    let first: Vec<Instr> = (0..n).map(|_| a.next_instr().unwrap()).collect();
    let second: Vec<Instr> = (0..n).map(|_| a.next_instr().unwrap()).collect();
    // Memory accesses repeat exactly; filler ops differ only in pc
    // (the pc pattern follows the global instruction counter).
    for (x, y) in first.iter().zip(&second) {
        match (&x.kind, &y.kind) {
            (InstrKind::Op, InstrKind::Op) => {}
            _ => assert_eq!(x, y),
        }
    }
}

/// The trait's batching contract, pinned for BOTH source kinds: a batch
/// of `n` fillers is bit-identical to `n` single steps, `take_filler`
/// never overshoots `max`, and a return of 0 means the next
/// instruction is a memory access.
fn pin_filler_contract(mut batched: Box<dyn WorkloadSource>, mut stepped: Box<dyn WorkloadSource>) {
    let mut driven = 0u64;
    while driven < 4000 {
        // Batched source: drain fillers in capped batches, then one
        // memory access.
        let mut batch_total = 0;
        loop {
            let got = batched.take_filler(3);
            assert!(got <= 3, "take_filler overshot max");
            if got == 0 {
                break;
            }
            batch_total += got;
        }
        let batched_mem = batched.next_instr().expect("stream");
        assert!(
            !matches!(batched_mem.kind, InstrKind::Op),
            "take_filler returned 0 but next_instr produced a filler op"
        );
        // Stepped source: single-step the same number of fillers.
        for _ in 0..batch_total {
            let instr = stepped.next_instr().expect("stream");
            assert!(matches!(instr.kind, InstrKind::Op), "expected a filler op");
        }
        assert_eq!(stepped.take_filler(u64::MAX), 0);
        let stepped_mem = stepped.next_instr().expect("stream");
        assert_eq!(
            batched_mem, stepped_mem,
            "batched and stepped streams diverged"
        );
        driven += batch_total + 1;
    }
}

#[test]
fn filler_contract_holds_for_synthetic_source() {
    let spec = catalog::workload("omnetpp").unwrap();
    pin_filler_contract(
        Box::new(TraceGenerator::new(spec, 17)),
        Box::new(TraceGenerator::new(spec, 17)),
    );
}

#[test]
fn filler_contract_holds_for_trace_source() {
    let tmp = TempTrace::new("filler_contract");
    record_workload(tmp.path(), "omnetpp", 17, 6000);
    pin_filler_contract(
        Box::new(open_reader(tmp.path())),
        Box::new(open_reader(tmp.path())),
    );
}

/// Cursor round trip for both source kinds: run K instructions, save
/// the cursor, load it into a freshly-built source, and require the
/// next M instructions to be bit-identical — including when the save
/// lands mid-filler-run and when the stream has already wrapped.
fn pin_cursor_roundtrip(
    mut live: Box<dyn WorkloadSource>,
    mut fresh: Box<dyn WorkloadSource>,
    k: u64,
) {
    for _ in 0..k {
        live.next_instr().expect("stream");
    }
    let mut e = psa_common::Enc::new();
    live.save_cursor(&mut e);
    let bytes = e.into_bytes();
    let mut d = psa_common::Dec::new(&bytes);
    fresh.load_cursor(&mut d).expect("cursor loads");
    assert_eq!(d.remaining(), 0, "cursor encoding fully consumed");
    for i in 0..2000 {
        assert_eq!(
            live.next_instr().unwrap(),
            fresh.next_instr().unwrap(),
            "instruction {i} after cursor restore diverged"
        );
    }
}

#[test]
fn cursor_roundtrip_synthetic() {
    let spec = catalog::workload("sphinx3").unwrap();
    pin_cursor_roundtrip(
        Box::new(TraceGenerator::new(spec, 23)),
        Box::new(TraceGenerator::new(spec, 23)),
        1237,
    );
}

#[test]
fn cursor_roundtrip_trace_mid_pass_and_after_wrap() {
    let tmp = TempTrace::new("cursor");
    let n = 3000;
    record_workload(tmp.path(), "sphinx3", 23, n);
    // Mid-first-pass.
    pin_cursor_roundtrip(
        Box::new(open_reader(tmp.path())),
        Box::new(open_reader(tmp.path())),
        1237,
    );
    // After a wrap.
    pin_cursor_roundtrip(
        Box::new(open_reader(tmp.path())),
        Box::new(open_reader(tmp.path())),
        n + 421,
    );
}

#[test]
fn cursor_kinds_do_not_cross_load() {
    let tmp = TempTrace::new("cursor_kind");
    record_workload(tmp.path(), "lbm", 1, 500);
    let spec = catalog::workload("lbm").unwrap();
    let gen: Box<dyn WorkloadSource> = Box::new(TraceGenerator::new(spec, 1));
    let mut rdr: Box<dyn WorkloadSource> = Box::new(open_reader(tmp.path()));
    let mut e = psa_common::Enc::new();
    gen.save_cursor(&mut e);
    let bytes = e.into_bytes();
    let mut d = psa_common::Dec::new(&bytes);
    assert!(
        rdr.load_cursor(&mut d).is_err(),
        "trace source must reject a synthetic cursor"
    );
    let mut e = psa_common::Enc::new();
    rdr.save_cursor(&mut e);
    let bytes = e.into_bytes();
    let mut gen2: Box<dyn WorkloadSource> = Box::new(TraceGenerator::new(spec, 1));
    let mut d = psa_common::Dec::new(&bytes);
    assert!(
        gen2.load_cursor(&mut d).is_err(),
        "synthetic source must reject a trace cursor"
    );
}

// ---------------------------------------------------------------------
// Corruption taxonomy: every damaged file is a typed TraceError.
// ---------------------------------------------------------------------

#[test]
fn empty_file_is_truncated() {
    let tmp = TempTrace::new("empty");
    std::fs::write(&tmp.0, b"").unwrap();
    assert!(matches!(
        format::verify_file(tmp.path()).unwrap_err(),
        TraceError::Truncated(_)
    ));
}

#[test]
fn truncated_file_is_typed_at_every_cut() {
    let tmp = TempTrace::new("truncate_src");
    record_workload(tmp.path(), "milc", 3, 800);
    let bytes = std::fs::read(&tmp.0).unwrap();
    // Cut points: inside the header, at the header/data boundary area,
    // inside a block header, inside a block payload, end minus one.
    for cut in [3usize, 20, 60, 200, bytes.len() - 1] {
        let cut_tmp = TempTrace::new(&format!("truncate_{cut}"));
        std::fs::write(&cut_tmp.0, &bytes[..cut]).unwrap();
        let err = format::verify_file(cut_tmp.path()).unwrap_err();
        assert!(
            matches!(err, TraceError::Truncated(_) | TraceError::Corrupt(_)),
            "cut {cut}: {err}"
        );
    }
}

#[test]
fn bit_flips_are_typed_everywhere() {
    let tmp = TempTrace::new("flip_src");
    record_workload(tmp.path(), "milc", 3, 800);
    let bytes = std::fs::read(&tmp.0).unwrap();
    let step = (bytes.len() / 23).max(1);
    for at in (0..bytes.len()).step_by(step) {
        let mut bad = bytes.clone();
        bad[at] ^= 0x10;
        let flip_tmp = TempTrace::new(&format!("flip_{at}"));
        std::fs::write(&flip_tmp.0, &bad).unwrap();
        match format::verify_file(flip_tmp.path()) {
            // Header damage, checksum misses, length damage…
            Err(
                TraceError::Corrupt(_)
                | TraceError::Truncated(_)
                | TraceError::VersionMismatch { .. },
            ) => {}
            Err(other) => panic!("flip at {at}: unexpected error kind {other}"),
            Ok(_) => panic!("flip at {at} went undetected (FNV + structure should catch it)"),
        }
    }
}

#[test]
fn wrong_version_is_typed() {
    let tmp = TempTrace::new("version");
    record_workload(tmp.path(), "milc", 3, 100);
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&tmp.0)
        .unwrap();
    // Patch the version field AND the header CRC so only the version is
    // "wrong" — version must be checked before the checksum.
    let mut all = Vec::new();
    f.read_to_end(&mut all).unwrap();
    all[8..12].copy_from_slice(&(TRACE_VERSION + 7).to_le_bytes());
    f.seek(SeekFrom::Start(0)).unwrap();
    f.write_all(&all).unwrap();
    drop(f);
    assert!(matches!(
        format::verify_file(tmp.path()).unwrap_err(),
        TraceError::VersionMismatch { found, expected: TRACE_VERSION } if found == TRACE_VERSION + 7
    ));
}

#[test]
fn header_count_disagreement_is_corrupt() {
    let tmp = TempTrace::new("counts");
    record_workload(tmp.path(), "milc", 3, 4000);
    let bytes = std::fs::read(&tmp.0).unwrap();
    // Drop the last block entirely: blocks checksum fine but the totals
    // no longer match the header.
    let hdr_end = {
        // Find the first block: header length = 14 fixed + name + 32.
        let name_len = u16::from_le_bytes([bytes[12], bytes[13]]) as usize;
        14 + name_len + 32
    };
    let first_block_payload =
        u32::from_le_bytes(bytes[hdr_end..hdr_end + 4].try_into().unwrap()) as usize;
    let first_block_end = hdr_end + 16 + first_block_payload;
    assert!(first_block_end < bytes.len(), "need at least two blocks");
    let cut_tmp = TempTrace::new("counts_cut");
    std::fs::write(&cut_tmp.0, &bytes[..first_block_end]).unwrap();
    assert!(matches!(
        format::verify_file(cut_tmp.path()).unwrap_err(),
        TraceError::Corrupt("header counts disagree with records")
    ));
}

/// A block's record count sits outside the payload checksum: a count of
/// `0xFFFFFFFF` must be rejected by its bound before it sizes an
/// allocation — a typed error from both the verifier and the reader.
#[test]
fn oversized_block_count_is_typed_not_an_abort() {
    let tmp = TempTrace::new("nrecords");
    record_workload(tmp.path(), "mcf", 7, 2_000);
    let tref = TraceRef::open(tmp.path()).expect("verified before the damage");
    let mut bytes = std::fs::read(&tmp.0).unwrap();
    // The first block follows the header: 14 fixed bytes + name + 32.
    let name_len = u16::from_le_bytes([bytes[12], bytes[13]]) as usize;
    let count_at = 14 + name_len + 32 + 4;
    bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&tmp.0, &bytes).unwrap();
    assert!(matches!(
        format::verify_file(tmp.path()),
        Err(TraceError::Corrupt("block shape"))
    ));
    assert!(matches!(
        TraceReader::open(&tref),
        Err(TraceError::Corrupt("block shape"))
    ));
}

#[test]
fn pinned_open_rejects_foreign_hash() {
    let tmp = TempTrace::new("pin");
    record_workload(tmp.path(), "lbm", 9, 200);
    let good = TraceRef::open(tmp.path()).unwrap();
    assert!(TraceRef::open_pinned(tmp.path(), good.content_hash).is_ok());
    assert!(matches!(
        TraceRef::open_pinned(tmp.path(), good.content_hash ^ 1).unwrap_err(),
        TraceError::HashMismatch { .. }
    ));
}

#[test]
fn workload_ref_builds_both_kinds() {
    let tmp = TempTrace::new("ref_build");
    record_workload(tmp.path(), "lbm", 9, 300);
    let tref = TraceRef::open(tmp.path()).unwrap();
    assert!(tref.name.starts_with("trace:lbm@"));
    let wref = WorkloadRef::TraceFile(tref);
    let mut src = wref.build_source(0).expect("trace source builds");
    assert_eq!(src.name(), tref.name);
    src.next_instr().unwrap();
    let spec = catalog::workload("lbm").unwrap();
    assert_eq!(
        wref.huge_fraction(),
        spec.huge_fraction,
        "trace header carries the workload's huge fraction"
    );
}
