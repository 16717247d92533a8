//! In-memory labelled image datasets.

use lts_tensor::{Shape, Tensor};
use serde::{Deserialize, Serialize};

/// A labelled in-memory dataset: an NCHW image tensor plus one class label
/// per image.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Images `[n, c, h, w]`.
    pub images: Tensor,
    /// One class index per image.
    pub labels: Vec<usize>,
}

impl Dataset {
    /// Wraps images and labels.
    ///
    /// # Panics
    ///
    /// Panics if the label count differs from the image batch dimension or
    /// the image tensor is not rank 4.
    pub fn new(images: Tensor, labels: Vec<usize>) -> Self {
        assert_eq!(images.shape().rank(), 4, "images must be NCHW");
        assert_eq!(images.shape().dim(0), labels.len(), "one label per image");
        Self { images, labels }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Image dims `(c, h, w)`.
    pub fn image_dims(&self) -> (usize, usize, usize) {
        let s = self.images.shape();
        (s.dim(1), s.dim(2), s.dim(3))
    }

    /// Number of distinct classes (max label + 1; `0` when empty).
    pub fn classes(&self) -> usize {
        self.labels.iter().max().map_or(0, |&m| m + 1)
    }

    /// A copy of the first `n` samples (or all if fewer).
    pub fn take(&self, n: usize) -> Dataset {
        let n = n.min(self.len());
        let (c, h, w) = self.image_dims();
        let sample = c * h * w;
        let images =
            Tensor::from_vec(Shape::d4(n, c, h, w), self.images.as_slice()[..n * sample].to_vec())
                .expect("slice length matches shape by construction");
        Dataset::new(images, self.labels[..n].to_vec())
    }

    /// Splits into `(first k, rest)`.
    ///
    /// # Panics
    ///
    /// Panics if `k > len`.
    pub fn split_at(&self, k: usize) -> (Dataset, Dataset) {
        assert!(k <= self.len(), "split point {k} beyond {} samples", self.len());
        let (c, h, w) = self.image_dims();
        let sample = c * h * w;
        let head =
            Tensor::from_vec(Shape::d4(k, c, h, w), self.images.as_slice()[..k * sample].to_vec())
                .expect("sized by construction");
        let tail = Tensor::from_vec(
            Shape::d4(self.len() - k, c, h, w),
            self.images.as_slice()[k * sample..].to_vec(),
        )
        .expect("sized by construction");
        (
            Dataset::new(head, self.labels[..k].to_vec()),
            Dataset::new(tail, self.labels[k..].to_vec()),
        )
    }
}

/// A train/test pair drawn from the same distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainTest {
    /// Training split.
    pub train: Dataset,
    /// Held-out test split.
    pub test: Dataset,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        let images = Tensor::zeros(Shape::d4(n, 1, 2, 2));
        Dataset::new(images, (0..n).map(|i| i % 3).collect())
    }

    #[test]
    fn classes_is_max_label_plus_one() {
        assert_eq!(toy(5).classes(), 3);
        assert_eq!(toy(1).classes(), 1);
    }

    #[test]
    fn take_limits_sample_count() {
        let d = toy(10);
        assert_eq!(d.take(4).len(), 4);
        assert_eq!(d.take(99).len(), 10);
    }

    #[test]
    fn split_partitions_samples() {
        let d = toy(10);
        let (a, b) = d.split_at(7);
        assert_eq!(a.len(), 7);
        assert_eq!(b.len(), 3);
        assert_eq!(a.labels[6], 6 % 3);
        assert_eq!(b.labels[0], 7 % 3);
    }

    #[test]
    #[should_panic(expected = "one label per image")]
    fn label_count_must_match() {
        Dataset::new(Tensor::zeros(Shape::d4(2, 1, 2, 2)), vec![0]);
    }

    /// `n` samples of 1x2x2 whose pixels count up from zero.
    fn counting(n: usize) -> Dataset {
        let images =
            Tensor::from_vec(Shape::d4(n, 1, 2, 2), (0..n * 4).map(|v| v as f32).collect())
                .unwrap();
        Dataset::new(images, (0..n).collect())
    }

    #[test]
    fn empty_dataset_has_no_classes() {
        let d = toy(0);
        assert!(d.is_empty());
        assert_eq!(d.classes(), 0);
        assert!(d.take(5).is_empty());
    }

    #[test]
    fn image_dims_drop_the_batch_axis() {
        let d = Dataset::new(Tensor::zeros(Shape::d4(3, 2, 5, 7)), vec![0, 1, 0]);
        assert_eq!(d.image_dims(), (2, 5, 7));
    }

    #[test]
    fn take_keeps_the_leading_pixels_and_labels() {
        let d = counting(5);
        let t = d.take(2);
        assert_eq!(t.images.as_slice(), &[0., 1., 2., 3., 4., 5., 6., 7.]);
        assert_eq!(t.labels, vec![0, 1]);
        assert_eq!(t.image_dims(), d.image_dims());
    }

    #[test]
    fn split_halves_concatenate_to_the_original() {
        let d = counting(6);
        for k in 0..=6 {
            let (a, b) = d.split_at(k);
            let mut pixels = a.images.as_slice().to_vec();
            pixels.extend_from_slice(b.images.as_slice());
            assert_eq!(pixels, d.images.as_slice(), "split at {k}");
            assert_eq!([a.labels, b.labels].concat(), d.labels);
        }
    }

    #[test]
    #[should_panic(expected = "beyond 3 samples")]
    fn split_past_the_end_panics() {
        toy(3).split_at(4);
    }

    #[test]
    #[should_panic(expected = "NCHW")]
    fn images_must_be_rank_four() {
        Dataset::new(Tensor::zeros(Shape::d3(2, 2, 2)), vec![0, 0]);
    }
}
