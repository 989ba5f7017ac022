//! No-op `Serialize` / `Deserialize` derives.
//!
//! The engine derives serde traits only so experiment tables can be
//! dumped as JSON; nothing the benchmark calls serialises through serde.
//! The derives therefore expand to nothing, and declare the `serde`
//! helper attribute so `#[serde(default)]` on a field still parses.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
