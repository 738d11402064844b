//! Software-radio front-end: the USRP N210 stand-in.
//!
//! The paper's prototype is three USRP N210s sharing a clock — two
//! transmitters and one receiver acting as a single MIMO device, with
//! Wi-Fi-style OFDM implemented in the UHD driver (§7.1). This crate
//! simulates that radio against a `wivi-rf` [`Scene`](wivi_rf::Scene):
//!
//! * [`ofdm`] — 64-subcarrier OFDM over a 5 MHz channel (the paper reduced
//!   bandwidth from 20 MHz to 5 MHz so nulling could run in real time),
//!   with the IFFT/FFT symbol path and a known sounding preamble.
//! * [`adc`] — the receiver's saturating, quantizing ADC and the transmit
//!   chain's linear-range clipping. These two nonlinearities are *why*
//!   Wi-Vi needs analog-domain nulling: the flash saturates the ADC and
//!   buries through-wall reflections below the quantization floor (Ch. 1).
//! * [`frontend`] — the staged MIMO front-end: sound each TX antenna,
//!   install a per-subcarrier precoder, observe the residual channel, and
//!   manage TX power / RX gain the way Algorithm 1 requires.
//!
//! Everything above this crate (nulling, ISAR, MUSIC, gestures) consumes
//! only [`frontend::Observation`]s, so the seam to real hardware is this
//! crate's public API.

pub mod adc;
pub mod frontend;
pub mod ofdm;

pub use adc::{Adc, QuantizeOutcome};
pub use frontend::{MimoFrontend, Observation, RadioConfig};
pub use ofdm::OfdmConfig;
