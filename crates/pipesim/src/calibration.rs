//! Measured runtime overheads the analytic model would otherwise guess.
//!
//! `repro exec-validate` showed measured throughput landing ~50% below
//! the analytic prediction: the real runtime pays codec encode/decode,
//! per-frame channel bookkeeping, weight-stash snapshots and per-op
//! dispatch that per-layer compute calibration cannot see. A
//! [`Calibration`] carries those residual costs as first-class model
//! inputs, fitted from short instrumented runs of the real runtime
//! (`ap-exec`'s `fit_calibration`) rather than guessed constants.
//!
//! All costs are charged to **stage occupancy**, not link time: encode
//! and decode run on the stage's own OS thread, serially with compute,
//! so a busy codec delays the next forward exactly like extra FLOPs
//! would. See DESIGN.md §9 "Calibrated cost model".

use ap_json::{Json, ToJson};

/// Fitted per-host runtime overheads, all in seconds.
///
/// `None` in the model structs means "raw": predict from per-layer
/// compute times and wire bytes alone, as before.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Fixed cost of one codec operation (one encode *or* one decode of
    /// one frame), independent of payload size.
    pub per_frame_s: f64,
    /// Per payload-byte cost of one codec operation (serialize or
    /// deserialize one byte of an activation/gradient tensor).
    pub per_byte_s: f64,
    /// Fixed per-stage, per-mini-batch overhead: op dispatch, input/loss
    /// generation, channel locking — everything left over after per-layer
    /// compute is accounted.
    pub stage_overhead_s: f64,
    /// Per parameter-byte cost of the weight-stash snapshot a non-final
    /// stage takes at each forward when `in_flight > 1`.
    pub stash_byte_s: f64,
    /// Compute slots (cores) the execution host gives stage threads;
    /// `0` means uncontended (every stage computes concurrently — the
    /// raw model's assumption). When positive and smaller than the
    /// number of stages, stage threads time-share cores, so the host can
    /// complete at most `compute_slots` stage-seconds of occupancy per
    /// wall-second: `Σ stage occupancy / compute_slots` becomes one more
    /// bottleneck term alongside the slowest stage and the slowest link.
    /// On a one-core host that term is the serialized sum of all stage
    /// work — pipelining hides nothing there, which is exactly what such
    /// a host does.
    pub compute_slots: usize,
}

impl Calibration {
    /// The all-zero calibration: applying it predicts exactly the raw
    /// model.
    pub fn zero() -> Self {
        Calibration {
            per_frame_s: 0.0,
            per_byte_s: 0.0,
            stage_overhead_s: 0.0,
            stash_byte_s: 0.0,
            compute_slots: 0,
        }
    }

    /// Seconds for one codec operation (encode or decode) on a frame
    /// with `bytes` of tensor payload.
    pub fn codec_op_s(&self, bytes: f64) -> f64 {
        self.per_frame_s + bytes * self.per_byte_s
    }

    /// Total extra stage-occupancy seconds per mini-batch — what the
    /// closed-form analytic model folds into `stage_time`. Each direction
    /// decodes its inbound frame and encodes its outbound one (gradient
    /// frames mirror the activations' shape) and pays half the fixed stage
    /// overhead; the forward also snapshots the stash.
    pub fn stage_extra_s(
        &self,
        in_bytes: Option<f64>,
        out_bytes: Option<f64>,
        stash_bytes: f64,
    ) -> f64 {
        let codec = |b: Option<f64>| b.map_or(0.0, |b| self.codec_op_s(b));
        let backward = self.stage_overhead_s / 2.0 + codec(in_bytes) + codec(out_bytes);
        backward + stash_bytes * self.stash_byte_s + backward
    }

    /// Parse from the JSON object written by [`ToJson`].
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("calibration needs numeric field {k:?}"))
        };
        // Absent in pre-contention artifacts: treat as uncontended.
        let slots = match v.get("compute_slots") {
            None => 0,
            Some(s) => s
                .as_usize()
                .ok_or_else(|| "calibration field \"compute_slots\" must be a usize".to_string())?,
        };
        let c = Calibration {
            per_frame_s: num("per_frame_s")?,
            per_byte_s: num("per_byte_s")?,
            stage_overhead_s: num("stage_overhead_s")?,
            stash_byte_s: num("stash_byte_s")?,
            compute_slots: slots,
        };
        for (k, x) in [
            ("per_frame_s", c.per_frame_s),
            ("per_byte_s", c.per_byte_s),
            ("stage_overhead_s", c.stage_overhead_s),
            ("stash_byte_s", c.stash_byte_s),
        ] {
            if !(x.is_finite() && x >= 0.0) {
                return Err(format!("calibration field {k:?} must be finite and >= 0"));
            }
        }
        Ok(c)
    }
}

impl ToJson for Calibration {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("per_frame_s", self.per_frame_s.to_json()),
            ("per_byte_s", self.per_byte_s.to_json()),
            ("stage_overhead_s", self.stage_overhead_s.to_json()),
            ("stash_byte_s", self.stash_byte_s.to_json()),
            ("compute_slots", self.compute_slots.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Calibration {
        Calibration {
            per_frame_s: 2e-6,
            per_byte_s: 1e-10,
            stage_overhead_s: 3e-5,
            stash_byte_s: 5e-11,
            compute_slots: 0,
        }
    }

    #[test]
    fn zero_calibration_adds_nothing() {
        let z = Calibration::zero();
        assert_eq!(z.stage_extra_s(Some(1e6), Some(1e6), 1e7), 0.0);
        assert_eq!(z.stage_extra_s(None, None, 0.0), 0.0);
    }

    #[test]
    fn stage_extra_is_forward_plus_backward() {
        let c = sample();
        let codec = c.codec_op_s(4096.0) + c.codec_op_s(8192.0);
        let f = c.stage_overhead_s / 2.0 + codec + 1e5 * c.stash_byte_s;
        let b = c.stage_overhead_s / 2.0 + codec;
        let tot = c.stage_extra_s(Some(4096.0), Some(8192.0), 1e5);
        assert!((tot - (f + b)).abs() < 1e-15);
    }

    #[test]
    fn boundary_frames_cost_fixed_plus_per_byte() {
        let c = sample();
        // A middle stage pays 4 codec ops per mini-batch (act in/out,
        // grad in/out); an edge stage with one boundary pays 2.
        let middle = c.stage_extra_s(Some(1000.0), Some(1000.0), 0.0);
        let edge = c.stage_extra_s(Some(1000.0), None, 0.0);
        let per_op = c.codec_op_s(1000.0);
        assert!((middle - edge - 2.0 * per_op).abs() < 1e-15);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let c = sample();
        let j = ap_json::parse(&c.to_json().pretty()).unwrap();
        assert_eq!(Calibration::from_json(&j).unwrap(), c);
    }

    #[test]
    fn from_json_defaults_missing_compute_slots_to_uncontended() {
        let j = ap_json::parse(
            r#"{"per_frame_s": 1e-6, "per_byte_s": 0.0,
                "stage_overhead_s": 0.0, "stash_byte_s": 0.0}"#,
        )
        .unwrap();
        assert_eq!(Calibration::from_json(&j).unwrap().compute_slots, 0);
    }

    #[test]
    fn from_json_rejects_negative_and_missing() {
        let j = ap_json::parse(
            r#"{"per_frame_s": -1.0, "per_byte_s": 0.0,
                "stage_overhead_s": 0.0, "stash_byte_s": 0.0}"#,
        )
        .unwrap();
        assert!(Calibration::from_json(&j).is_err());
        let j = ap_json::parse(r#"{"per_frame_s": 1.0}"#).unwrap();
        assert!(Calibration::from_json(&j).is_err());
    }
}
