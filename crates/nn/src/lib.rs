//! Neural sequence models over the [`autograd`] substrate — §V.E–F of the
//! paper: the 2-layer LSTM classifier and the BERT/RoBERTa-style
//! transformer encoders, together with the optimizers, schedules and
//! training loops that drive them.
//!
//! Design notes:
//!
//! * Recipes are short, ragged token sequences, so models process each
//!   example at its true length (no padding, no attention masks); a
//!   minibatch shares one autograd [`Graph`](autograd::Graph) so parameters
//!   are bound (copied) once per batch, and minibatches are sharded across
//!   crossbeam threads with gradient summation — the classic data-parallel
//!   layout.
//! * The MLM head ties its output projection to the token-embedding table
//!   (`logits = h · Eᵀ`), exercising the tape's parameter-binding cache.
//! * BERT vs RoBERTa is reproduced as the paper describes the delta:
//!   static vs dynamic masking and a longer pre-training schedule (see
//!   [`bert::PretrainConfig`]).

#![warn(missing_docs)]

pub mod attention;
pub mod batch;
pub mod bert;
pub mod checkpoint;
pub mod faults;
pub mod infer;
pub mod layers;
pub mod lstm;
pub mod optim;
pub mod schedule;
pub mod trainer;
pub mod transformer;
pub mod word2vec;

pub use attention::MultiHeadAttention;
pub use batch::BatchIterator;
pub use bert::{BertClassifier, BertConfig, PretrainConfig, PretrainStats};
pub use infer::{predict_proba_graph, FusedLstm};

pub use checkpoint::{
    load_checkpoint, load_checkpoint_with_state, save_checkpoint, save_checkpoint_v1,
    save_checkpoint_with_state, CheckpointManager, TrainState,
};
pub use layers::{Embedding, LayerNorm, Linear};
pub use lstm::{LstmCell, LstmClassifier, LstmConfig, LstmLayer, LstmPooling};
pub use optim::{AdamW, AdamWConfig, Optimizer, OptimizerSlot, OptimizerState, Sgd};
pub use schedule::LrSchedule;
pub use trainer::{
    EpochStats, FitOptions, SequenceModel, TrainError, TrainHistory, Trainer, TrainerConfig,
};
pub use transformer::{EncoderLayer, TransformerEncoder};
pub use word2vec::{train_word2vec, Word2VecConfig, WordEmbeddings};
