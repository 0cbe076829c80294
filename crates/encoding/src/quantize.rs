//! Fixed-precision normalized context representation.

use crate::EncodingError;
use p2b_linalg::Vector;
use serde::{Deserialize, Serialize};

/// A context on the fixed-precision grid: integer units per dimension that
/// sum to `10^q`. [`enumerate_simplex_grid`](crate::enumerate_simplex_grid)
/// returns the whole grid as these.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QuantizedContext {
    units: Vec<u64>,
    precision: u32,
}

impl QuantizedContext {
    /// Creates a quantized context directly from unit counts.
    ///
    /// # Errors
    ///
    /// Returns [`EncodingError::InvalidConfig`] if the units do not sum to
    /// `10^precision`.
    pub fn from_units(units: Vec<u64>, precision: u32) -> Result<Self, EncodingError> {
        let expected = 10u64.pow(precision);
        let total: u64 = units.iter().sum();
        if total != expected {
            return Err(EncodingError::InvalidConfig {
                parameter: "units",
                message: format!("units must sum to {expected}, got {total}"),
            });
        }
        Ok(Self { units, precision })
    }

    /// The integer unit counts.
    #[must_use]
    pub fn units(&self) -> &[u64] {
        &self.units
    }

    /// Number of dimensions.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.units.len()
    }

    /// The precision `q` this context was quantized with.
    #[must_use]
    pub fn precision(&self) -> u32 {
        self.precision
    }

    /// Converts back to a normalized floating-point vector.
    #[must_use]
    pub fn to_vector(&self) -> Vector {
        let total = 10u64.pow(self.precision) as f64;
        Vector::from(
            self.units
                .iter()
                .map(|&u| u as f64 / total)
                .collect::<Vec<_>>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_units_validates_sum() {
        assert!(QuantizedContext::from_units(vec![5, 5], 1).is_ok());
        assert!(QuantizedContext::from_units(vec![5, 4], 1).is_err());
    }

    #[test]
    fn to_vector_round_trips() {
        let q = QuantizedContext::from_units(vec![2, 3, 5], 1).unwrap();
        let v = q.to_vector();
        assert_eq!(v.as_slice(), &[0.2, 0.3, 0.5]);
    }
}
