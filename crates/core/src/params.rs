//! Fault parameter files — Tables II and III.
//!
//! NVBitFI drives each injection experiment from a small text parameter
//! file, one value per line. This module defines both parameter sets and
//! their (de)serialization, preserving the paper's conventions:
//!
//! * `kernel count` / `instruction count` are **0-based**: the value `n`
//!   names the *(n+1)-th* dynamic instance,
//! * `destination register` and `bit-pattern value` are floats in `[0, 1)`
//!   mapped onto the candidate set at injection time.

use crate::bitflip::BitFlipModel;
use crate::error::FiError;
use crate::igid::InstrGroup;
use std::fmt;

/// Parameters for one transient fault (Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct TransientParams {
    /// Instruction subset to inject (*arch state id*).
    pub group: InstrGroup,
    /// Bit-level corruption pattern.
    pub bit_flip: BitFlipModel,
    /// Target kernel name.
    pub kernel_name: String,
    /// 0-based dynamic instance of the kernel name.
    pub kernel_count: u64,
    /// 0-based dynamic instance of the target instruction, counted over the
    /// group's instructions within the target kernel instance.
    pub instruction_count: u64,
    /// Selects which destination register to corrupt, in `[0, 1)`.
    pub destination_register: f64,
    /// Drives the bit-error mask, in `[0, 1)`.
    pub bit_pattern: f64,
}

impl TransientParams {
    /// Validate value ranges.
    ///
    /// # Errors
    ///
    /// Returns [`FiError::BadParam`] if a float parameter is outside
    /// `[0, 1)` or the kernel name is empty.
    pub fn validate(&self) -> Result<(), FiError> {
        if self.kernel_name.is_empty() {
            return Err(FiError::BadParam { name: "kernel name", reason: "empty".into() });
        }
        for (name, v) in [
            ("destination register", self.destination_register),
            ("bit-pattern value", self.bit_pattern),
        ] {
            if !(0.0..1.0).contains(&v) {
                return Err(FiError::BadParam {
                    name: match name {
                        "destination register" => "destination register",
                        _ => "bit-pattern value",
                    },
                    reason: format!("{v} outside [0,1)"),
                });
            }
        }
        Ok(())
    }

    /// Serialize in the one-parameter-per-line file format.
    pub fn to_file(&self) -> String {
        format!(
            "{}\n{}\n{}\n{}\n{}\n{}\n{}\n",
            self.group.id(),
            self.bit_flip.id(),
            self.kernel_name,
            self.kernel_count,
            self.instruction_count,
            self.destination_register,
            self.bit_pattern,
        )
    }

    /// Parse the one-parameter-per-line file format.
    ///
    /// # Errors
    ///
    /// Returns [`FiError::BadParamFile`] naming the first offending line.
    pub fn from_file(text: &str) -> Result<TransientParams, FiError> {
        let mut lines = text.lines();
        let mut next = |line: usize, what: &str| {
            lines
                .next()
                .ok_or_else(|| FiError::BadParamFile { line, reason: format!("missing {what}") })
        };
        let bad = |line: usize, reason: String| FiError::BadParamFile { line, reason };

        let group_raw = next(1, "arch state id")?;
        let group = group_raw
            .trim()
            .parse::<u8>()
            .ok()
            .and_then(InstrGroup::from_id)
            .ok_or_else(|| bad(1, format!("bad arch state id `{group_raw}`")))?;
        let bf_raw = next(2, "bit-flip model")?;
        let bit_flip = bf_raw
            .trim()
            .parse::<u8>()
            .ok()
            .and_then(BitFlipModel::from_id)
            .ok_or_else(|| bad(2, format!("bad bit-flip model `{bf_raw}`")))?;
        let kernel_name = next(3, "kernel name")?.trim().to_string();
        let kernel_count = next(4, "kernel count")?
            .trim()
            .parse::<u64>()
            .map_err(|e| bad(4, format!("bad kernel count: {e}")))?;
        let instruction_count = next(5, "instruction count")?
            .trim()
            .parse::<u64>()
            .map_err(|e| bad(5, format!("bad instruction count: {e}")))?;
        let destination_register = next(6, "destination register")?
            .trim()
            .parse::<f64>()
            .map_err(|e| bad(6, format!("bad destination register: {e}")))?;
        let bit_pattern = next(7, "bit-pattern value")?
            .trim()
            .parse::<f64>()
            .map_err(|e| bad(7, format!("bad bit-pattern value: {e}")))?;

        let p = TransientParams {
            group,
            bit_flip,
            kernel_name,
            kernel_count,
            instruction_count,
            destination_register,
            bit_pattern,
        };
        p.validate().map_err(|e| bad(6, e.to_string()))?;
        Ok(p)
    }
}

impl fmt::Display for TransientParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} into `{}` instance {} instruction {} (dst {:.4}, pattern {:.4})",
            self.group,
            self.bit_flip,
            self.kernel_name,
            self.kernel_count,
            self.instruction_count,
            self.destination_register,
            self.bit_pattern
        )
    }
}

/// Parameters for one permanent fault (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PermanentParams {
    /// Which SM to inject (`0..num_sms`).
    pub sm_id: u32,
    /// Which hardware lane to inject (`0..32`).
    pub lane_id: u32,
    /// The XOR bit mask applied to destination registers.
    pub bit_mask: u32,
    /// The opcode to corrupt, as its stable encoding (`0..171`).
    pub opcode_id: u16,
}

impl PermanentParams {
    /// Validate value ranges against the device.
    ///
    /// # Errors
    ///
    /// Returns [`FiError::BadParam`] if the lane, SM, or opcode id is out of
    /// range.
    pub fn validate(&self, num_sms: u32) -> Result<(), FiError> {
        if self.sm_id >= num_sms {
            return Err(FiError::BadParam {
                name: "SM id",
                reason: format!("{} >= {num_sms}", self.sm_id),
            });
        }
        if self.lane_id >= gpu_isa::WARP_SIZE as u32 {
            return Err(FiError::BadParam {
                name: "lane id",
                reason: format!("{} >= 32", self.lane_id),
            });
        }
        if gpu_isa::Opcode::decode(self.opcode_id).is_none() {
            return Err(FiError::BadParam {
                name: "opcode id",
                reason: format!("{} >= {}", self.opcode_id, gpu_isa::OPCODE_COUNT),
            });
        }
        Ok(())
    }

    /// The targeted opcode.
    ///
    /// # Panics
    ///
    /// Panics if the opcode id is invalid; call
    /// [`PermanentParams::validate`] first.
    pub fn opcode(&self) -> gpu_isa::Opcode {
        gpu_isa::Opcode::decode(self.opcode_id).expect("validated opcode id")
    }

    /// Serialize in the one-parameter-per-line file format.
    pub fn to_file(&self) -> String {
        format!("{}\n{}\n{:#010x}\n{}\n", self.sm_id, self.lane_id, self.bit_mask, self.opcode_id)
    }

    /// Parse the one-parameter-per-line file format.
    ///
    /// # Errors
    ///
    /// Returns [`FiError::BadParamFile`] naming the first offending line.
    pub fn from_file(text: &str) -> Result<PermanentParams, FiError> {
        let mut lines = text.lines();
        let mut field = |line: usize, what: &str| -> Result<String, FiError> {
            lines
                .next()
                .map(|s| s.trim().to_string())
                .ok_or_else(|| FiError::BadParamFile { line, reason: format!("missing {what}") })
        };
        let sm_id = field(1, "SM id")?
            .parse::<u32>()
            .map_err(|e| FiError::BadParamFile { line: 1, reason: e.to_string() })?;
        let lane_id = field(2, "lane id")?
            .parse::<u32>()
            .map_err(|e| FiError::BadParamFile { line: 2, reason: e.to_string() })?;
        let mask_s = field(3, "bit mask")?;
        let bit_mask = if let Some(hex) = mask_s.strip_prefix("0x") {
            u32::from_str_radix(hex, 16)
                .map_err(|e| FiError::BadParamFile { line: 3, reason: e.to_string() })?
        } else {
            mask_s
                .parse::<u32>()
                .map_err(|e| FiError::BadParamFile { line: 3, reason: e.to_string() })?
        };
        let opcode_id = field(4, "opcode id")?
            .parse::<u16>()
            .map_err(|e| FiError::BadParamFile { line: 4, reason: e.to_string() })?;
        Ok(PermanentParams { sm_id, lane_id, bit_mask, opcode_id })
    }
}

impl fmt::Display for PermanentParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op =
            gpu_isa::Opcode::decode(self.opcode_id).map(|o| o.mnemonic()).unwrap_or("<invalid>");
        write!(
            f,
            "permanent fault on {op} (opcode {}) at SM {}, lane {}, mask {:#010x}",
            self.opcode_id, self.sm_id, self.lane_id, self.bit_mask
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TransientParams {
        TransientParams {
            group: InstrGroup::Gp,
            bit_flip: BitFlipModel::FlipSingleBit,
            kernel_name: "stencil_step".into(),
            kernel_count: 3,
            instruction_count: 12345,
            destination_register: 0.25,
            bit_pattern: 0.75,
        }
    }

    #[test]
    fn transient_file_roundtrip() {
        let p = sample();
        let text = p.to_file();
        assert_eq!(TransientParams::from_file(&text).expect("parse"), p);
        // One parameter per line, 7 lines (Table II's "specific target" +
        // "fault type" parameters).
        assert_eq!(text.lines().count(), 7);
    }

    #[test]
    fn transient_file_errors_name_the_line() {
        let mut lines: Vec<String> = sample().to_file().lines().map(String::from).collect();
        lines[1] = "99".into(); // invalid bit-flip model
        let err = TransientParams::from_file(&lines.join("\n")).unwrap_err();
        assert!(matches!(err, FiError::BadParamFile { line: 2, .. }));

        let err = TransientParams::from_file("1\n1\nk\n0\n").unwrap_err();
        assert!(matches!(err, FiError::BadParamFile { line: 5, .. }));
    }

    #[test]
    fn transient_validation() {
        let mut p = sample();
        p.destination_register = 1.5;
        assert!(p.validate().is_err());
        p.destination_register = 0.0;
        p.kernel_name.clear();
        assert!(p.validate().is_err());
    }

    #[test]
    fn permanent_file_roundtrip() {
        let p = PermanentParams { sm_id: 7, lane_id: 31, bit_mask: 0x0000_8000, opcode_id: 42 };
        let text = p.to_file();
        assert_eq!(PermanentParams::from_file(&text).expect("parse"), p);
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn permanent_validation() {
        let ok = PermanentParams { sm_id: 0, lane_id: 0, bit_mask: 1, opcode_id: 0 };
        ok.validate(80).expect("valid");
        assert!(PermanentParams { sm_id: 80, ..ok }.validate(80).is_err());
        assert!(PermanentParams { lane_id: 32, ..ok }.validate(80).is_err());
        assert!(PermanentParams { opcode_id: 171, ..ok }.validate(80).is_err());
    }

    #[test]
    fn permanent_accepts_decimal_mask() {
        let p = PermanentParams::from_file("0\n0\n255\n1\n").expect("parse");
        assert_eq!(p.bit_mask, 255);
    }
}
