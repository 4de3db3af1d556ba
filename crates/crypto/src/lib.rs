//! Simulated authentication substrate for the authenticated BFT-CUP and
//! BFT-CUPFT protocols.
//!
//! Section III of the paper assumes each process can *digitally sign*
//! messages, so that "Byzantine processes cannot lie about the PD of any
//! correct process, either by modifying `PDᵢ` or by creating a PD for `i`".
//! This crate provides that guarantee inside the simulation:
//!
//! * [`sha256`] — SHA-256 implemented from scratch (FIPS 180-4), validated
//!   against the NIST test vectors;
//! * [`hmac`] — HMAC-SHA256 (RFC 2104), validated against RFC 4231 vectors;
//! * [`SigningKey`] / [`KeyRegistry`] — a MAC-based signature scheme over a
//!   simulated PKI: every process holds a private key, verification goes
//!   through the registry, one immutable table shared by every process. A
//!   Byzantine *actor* in the simulation has no API to read another
//!   process's key, so forging a correct process's signature is
//!   impossible by construction — which is exactly the
//!   existential-unforgeability assumption the paper makes.
//!
//! The signed records themselves live with the protocols that send them:
//! the PD record `⟨i, PDᵢ⟩ᵢ` in `cupft_detector` (`PdCertificate`) and
//! the committee votes in `cupft_committee` (`CommitteeMsg`). Each signs
//! its own wire encoding with these keys and carries one [`Signature`].
//!
//! # Example
//!
//! ```
//! use cupft_crypto::KeyRegistry;
//!
//! let mut registry = KeyRegistry::new();
//! let alice = registry.register(1);
//! let sig = alice.sign(b"hello");
//! assert!(registry.verify(1, b"hello", &sig));
//! assert!(!registry.verify(1, b"tampered", &sig));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hmac;
pub mod sha256;

mod keys;
mod wire;

pub use keys::{KeyRegistry, Signature, SigningKey};
