//! Shared machinery for one-vs-rest linear models trained with SGD.
//!
//! Both Logistic Regression (§V.B) and the linear SVM (§V.C) are linear
//! score functions `s_k(x) = w_k · x + b_k` trained one-vs-rest: class `k`'s
//! binary problem labels its own documents positive and everything else
//! negative, exactly as the paper describes. They differ only in the loss
//! gradient, which is what [`LossKind`] plugs in.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use textproc::CsrMatrix;

/// SGD hyperparameters shared by the linear models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Initial learning rate (decays as `lr / (1 + t / n)` per epoch).
    pub learning_rate: f64,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// L2 regularization strength, applied to touched features
    /// (sparse-lazy approximation, as in Vowpal Wabbit).
    pub l2: f64,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.5,
            epochs: 30,
            l2: 1e-6,
            seed: 0,
        }
    }
}

/// Which per-class binary loss drives the gradient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossKind {
    /// Logistic loss: gradient `σ(s) − y` (y ∈ {0, 1}).
    Logistic,
    /// Hinge loss: gradient `−y` when `y·s < 1`, else 0 (y ∈ {−1, +1}).
    Hinge,
}

impl LossKind {
    /// d loss / d score for one binary problem.
    #[inline]
    fn gradient(self, score: f64, positive: bool) -> f64 {
        match self {
            LossKind::Logistic => {
                let p = 1.0 / (1.0 + (-score).exp());
                p - f64::from(positive)
            }
            LossKind::Hinge => {
                let y = if positive { 1.0 } else { -1.0 };
                if y * score < 1.0 {
                    -y
                } else {
                    0.0
                }
            }
        }
    }
}

/// A fitted one-vs-rest linear model: a dense weight row per class.
#[derive(Debug, Clone)]
pub struct LinearModel {
    /// `classes × vocab` weights.
    pub weights: Vec<Vec<f32>>,
    /// Per-class bias.
    pub bias: Vec<f32>,
}

impl LinearModel {
    /// Per-class decision scores for one document row.
    pub fn decision_row(&self, x: &CsrMatrix, row: usize) -> Vec<f64> {
        self.weights
            .iter()
            .zip(&self.bias)
            .map(|(w, &b)| x.row_dot(row, w) as f64 + b as f64)
            .collect()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.weights.len()
    }

    /// Feature columns per class (0 for a model without classes).
    pub fn width(&self) -> usize {
        self.weights.first().map_or(0, Vec::len)
    }
}

/// Trains a one-vs-rest linear model with SGD.
///
/// Each sample updates every class's binary problem in one pass (equivalent
/// to independent OvR training, but a single cache-friendly sweep).
pub fn train_ovr(
    x: &CsrMatrix,
    y: &[usize],
    classes: usize,
    loss: LossKind,
    config: &SgdConfig,
) -> LinearModel {
    let vocab = x.cols();
    let mut model = LinearModel {
        weights: vec![vec![0.0f32; vocab]; classes],
        bias: vec![0.0f32; classes],
    };
    let mut order: Vec<usize> = (0..x.rows()).collect();
    let mut rng = StdRng::seed_from_u64(config.seed);

    for epoch in 0..config.epochs {
        order.shuffle(&mut rng);
        let lr = config.learning_rate / (1.0 + epoch as f64);
        for &r in &order {
            let (idx, vals) = x.row(r);
            let label = y[r];
            for k in 0..classes {
                let w = &mut model.weights[k];
                let mut score = model.bias[k] as f64;
                for (&c, &v) in idx.iter().zip(vals) {
                    score += v as f64 * w[c as usize] as f64;
                }
                let g = loss.gradient(score, k == label);
                if g == 0.0 {
                    continue;
                }
                let step = (lr * g) as f32;
                for (&c, &v) in idx.iter().zip(vals) {
                    let wi = &mut w[c as usize];
                    *wi -= step * v + (lr * config.l2) as f32 * *wi;
                }
                model.bias[k] -= step;
            }
        }
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use textproc::CsrBuilder;

    fn separable() -> (CsrMatrix, Vec<usize>) {
        let mut b = CsrBuilder::new(3);
        for _ in 0..10 {
            b.push_sorted_row([(0, 1.0)]);
            b.push_sorted_row([(1, 1.0)]);
            b.push_sorted_row([(2, 1.0)]);
        }
        let y = (0..30).map(|i| i % 3).collect();
        (b.build(), y)
    }

    #[test]
    fn logistic_learns_separable_data() {
        let (x, y) = separable();
        let m = train_ovr(&x, &y, 3, LossKind::Logistic, &SgdConfig::default());
        for (r, &want) in y.iter().enumerate() {
            let scores = m.decision_row(&x, r);
            let pred = scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0;
            assert_eq!(pred, want);
        }
    }

    #[test]
    fn hinge_learns_separable_data() {
        let (x, y) = separable();
        let m = train_ovr(&x, &y, 3, LossKind::Hinge, &SgdConfig::default());
        for (r, &want) in y.iter().enumerate() {
            let scores = m.decision_row(&x, r);
            let pred = scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0;
            assert_eq!(pred, want);
        }
    }

    #[test]
    fn logistic_gradient_signs() {
        // positive example with negative score → gradient < 0 (push up)
        assert!(LossKind::Logistic.gradient(-2.0, true) < 0.0);
        assert!(LossKind::Logistic.gradient(2.0, false) > 0.0);
    }

    #[test]
    fn hinge_gradient_zero_outside_margin() {
        assert_eq!(LossKind::Hinge.gradient(2.0, true), 0.0);
        assert_eq!(LossKind::Hinge.gradient(0.5, true), -1.0);
        assert_eq!(LossKind::Hinge.gradient(-2.0, false), 0.0);
        assert_eq!(LossKind::Hinge.gradient(0.5, false), 1.0);
    }

    #[test]
    fn l2_shrinks_weights() {
        let (x, y) = separable();
        let weak = train_ovr(
            &x,
            &y,
            3,
            LossKind::Logistic,
            &SgdConfig {
                l2: 0.0,
                ..Default::default()
            },
        );
        let strong = train_ovr(
            &x,
            &y,
            3,
            LossKind::Logistic,
            &SgdConfig {
                l2: 0.5,
                ..Default::default()
            },
        );
        let norm =
            |m: &LinearModel| -> f32 { m.weights.iter().flatten().map(|w| w * w).sum::<f32>() };
        assert!(norm(&strong) < norm(&weak));
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = separable();
        let a = train_ovr(&x, &y, 3, LossKind::Logistic, &SgdConfig::default());
        let b = train_ovr(&x, &y, 3, LossKind::Logistic, &SgdConfig::default());
        assert_eq!(a.weights, b.weights);
    }
}
