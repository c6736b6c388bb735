//! Links the benchmark with every function on a 64-byte boundary.
//!
//! Where a function lands decides how its loops sit in the instruction
//! cache's lines, and where it lands follows from things that are not the
//! program: the path of the checkout enters the symbol hashes of the
//! crates outside this workspace, those order the code, and the standard
//! library's precompiled functions are placed after it on a 16-byte
//! boundary. `core::str::from_utf8`, three quarters of `daemon_warm`, runs
//! 22 % slower at offset 0 of a 64-byte line than at offset 32: the same
//! sources built in two directories measured 18.7 and 22.7 ms per op.
//! `text-align.ld` puts every function, precompiled ones too, at offset
//! 0, so that two builds of one program time alike. See the README.

fn main() {
    let dir = std::env::var("CARGO_MANIFEST_DIR").expect("Cargo sets CARGO_MANIFEST_DIR");
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-changed=text-align.ld");
    println!("cargo:rustc-link-arg-bins=-Wl,-T,{dir}/text-align.ld");
}
