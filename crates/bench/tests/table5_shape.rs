//! Table V's shape check, alone in its own test binary.
//!
//! The test compares wall-clock timings of the three decoder kinds, so
//! nothing may run beside it: in a binary whose other tests train whole
//! systems on parallel threads, that contention can invert the timings.

use qrw_bench::tables::table5;
use qrw_nmt::ComponentKind;

#[test]
fn table5_latency_rows_cover_all_kinds() {
    let rows = table5(2);
    assert_eq!(rows.len(), 3);
    for r in &rows {
        assert!(r.encoder_ms > 0.0 && r.decoder_ms > 0.0);
        // Decoding 15 steps costs more than one encode.
        assert!(r.decoder_ms > r.encoder_ms, "{r:?}");
    }
    // The paper's key shape: the transformer decoder is the slowest
    // decoder (prefix recompute at every step).
    let t = rows.iter().find(|r| r.kind == ComponentKind::Transformer).unwrap();
    let rnn = rows.iter().find(|r| r.kind == ComponentKind::Rnn).unwrap();
    assert!(
        t.decoder_ms > rnn.decoder_ms,
        "transformer decoder {:.3}ms should exceed RNN {:.3}ms",
        t.decoder_ms,
        rnn.decoder_ms
    );
}
