//! How long the event-loop thread is held by one request line: decode
//! time of a `{"source":"…"}` document against the size of the string
//! (DESIGN.md §5e, "Cost of a frame").
//!
//! ```text
//! cargo run --release -p earth-ir --example json_scaling -- 8 64 256 1024 4096
//! ```
//!
//! Sizes are in KB. Each is the best of five decodes, and of five
//! encodes of the same string.

use earth_ir::json;
use std::time::Instant;

fn best_of_5_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    // A line of source as it travels: three escapes and one two-byte
    // character per 64 bytes.
    let line = format!("  x = p->next; /* é */ y = \"s\";{}\n", " ".repeat(31));
    println!("{:>8} {:>12} {:>12}", "KB", "decode ms", "encode ms");
    for kb in std::env::args().skip(1) {
        let kb: usize = kb.parse().expect("sizes are integers, in KB");
        let source = line.repeat(kb * 1024 / line.len());
        let doc = json::Obj::new().str("source", &source).finish();
        let decode = best_of_5_ms(|| json::parse(std::hint::black_box(&doc)).expect("valid"));
        let encode = best_of_5_ms(|| json::string(std::hint::black_box(&source)));
        println!("{kb:>8} {decode:>12.3} {encode:>12.3}");
    }
}
