//! Synthetic image-classification datasets for the TTFS-CAT reproduction.
//!
//! The paper evaluates on CIFAR-10, CIFAR-100 and Tiny-ImageNet. Those
//! datasets (and the GPU budget to train VGG-16 on them) are not available in
//! this environment, so this crate procedurally generates class-conditional
//! image datasets whose *difficulty ordering* matches the paper's:
//! CIFAR-10-like < CIFAR-100-like < Tiny-ImageNet-like. Each class owns a
//! Gabor-like oriented-grating prototype plus a colour bias; samples add
//! instance noise, random phase jitter and global distractors.
//!
//! The generators are fully deterministic given a seed, so every experiment
//! harness in `snn-bench` is reproducible.
//!
//! # Example
//!
//! ```
//! use snn_data::{DatasetSpec, SyntheticDataset};
//!
//! let spec = DatasetSpec::cifar10_like().with_samples(40, 20);
//! let data = SyntheticDataset::generate(&spec, 42);
//! assert_eq!(data.train_images().dims(), &[40, 3, 16, 16]);
//! assert_eq!(data.test_labels().len(), 20);
//! ```

#![forbid(unsafe_code)]

mod dataset;
mod spec;

pub use dataset::SyntheticDataset;
pub use spec::DatasetSpec;
