//! Classical ("statistical") classifiers over sparse TF-IDF features —
//! §V.A–D of the paper: Multinomial Naive Bayes, one-vs-rest Logistic
//! Regression, one-vs-rest linear SVM, CART decision trees, Random Forest
//! and AdaBoost (SAMME).
//!
//! All models implement the common [`Classifier`] trait over
//! [`textproc::CsrMatrix`] documents and integer class labels, train on a
//! single machine core (Random Forest parallelises across trees with
//! crossbeam), and expose calibrated or pseudo-calibrated probabilities so
//! the harness can report the paper's loss column.

mod adaboost;
pub mod cv;
pub mod feature_selection;
mod forest;
pub mod io;
mod logreg;
mod naive_bayes;
mod sgd;
mod svm;
mod traits;
mod tree;

pub use adaboost::{AdaBoost, AdaBoostConfig};
pub use cv::{cross_val_accuracy, mean_std, stratified_kfold, Fold};
pub use feature_selection::{chi2_scores, class_signatures, top_chi2};
pub use forest::{RandomForest, RandomForestConfig};
pub use io::{load_linear, save_linear};
pub use logreg::{LogisticRegression, LogisticRegressionConfig};
pub use naive_bayes::{MultinomialNb, MultinomialNbConfig};
pub use sgd::{LinearModel, SgdConfig};
pub use svm::{LinearSvm, LinearSvmConfig};
pub use traits::Classifier;
pub use tree::{DecisionTree, DecisionTreeConfig};
