//! Class-conditional synthetic image generator.
//!
//! Each class owns a smooth random template; a sample is the template under
//! random gain, random small translation, and additive Gaussian noise.
//! Difficulty is controlled by the noise level and translation range:
//! low-noise configurations emulate MNIST-like tasks (a trained LeNet/MLP
//! reaches ≥ 98 %); high-noise, high-jitter configurations emulate
//! ImageNet-like difficulty (accuracies around 50–80 %, like the paper's
//! CaffeNet and ConvNet rows).

use crate::dataset::{Dataset, TrainTest};
use lts_tensor::{init, Shape, Tensor};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of a synthetic classification task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Image dims `(c, h, w)`.
    pub dims: (usize, usize, usize),
    /// Number of classes.
    pub classes: usize,
    /// Standard deviation of the additive Gaussian pixel noise.
    pub noise_sigma: f32,
    /// Multiplicative gain is drawn from `[1 - gain_jitter, 1 + gain_jitter]`.
    pub gain_jitter: f32,
    /// Maximum translation (pixels, each axis, uniform in `±translate_px`).
    pub translate_px: usize,
    /// Smoothing passes applied to the class templates (higher = smoother,
    /// more low-frequency class structure).
    pub smooth_passes: usize,
}

impl SynthConfig {
    /// An easy, MNIST-like task on the given dims (trained baselines land
    /// in the high-90s, like MNIST — high enough to be "solved", noisy
    /// enough that over-pruning costs accuracy).
    pub fn easy(dims: (usize, usize, usize), classes: usize) -> Self {
        Self {
            dims,
            classes,
            noise_sigma: 1.0,
            gain_jitter: 0.25,
            translate_px: 2,
            smooth_passes: 2,
        }
    }

    /// A hard, ImageNet-like task on the given dims (baselines around
    /// 50–80 %, like the paper's ConvNet/CaffeNet rows).
    pub fn hard(dims: (usize, usize, usize), classes: usize) -> Self {
        Self {
            dims,
            classes,
            noise_sigma: 1.9,
            gain_jitter: 0.5,
            translate_px: 3,
            smooth_passes: 1,
        }
    }
}

/// Generates class templates and samples from them.
///
/// # Examples
///
/// ```
/// use lts_datasets::synth::{SynthConfig, SynthGenerator};
/// use lts_tensor::init;
///
/// let gen = SynthGenerator::new(SynthConfig::easy((1, 8, 8), 4), 7);
/// let mut rng = init::rng(0);
/// let data = gen.dataset(16, &mut rng);
/// assert_eq!(data.len(), 16);
/// assert_eq!(data.classes(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct SynthGenerator {
    config: SynthConfig,
    /// One `[c, h, w]` template per class.
    templates: Vec<Tensor>,
}

impl SynthGenerator {
    /// Builds the per-class templates deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0` or the image has no pixels.
    pub fn new(config: SynthConfig, seed: u64) -> Self {
        assert!(config.classes > 0, "need at least one class");
        let (c, h, w) = config.dims;
        assert!(c * h * w > 0, "image must have pixels");
        let mut rng = init::rng(seed);
        let templates = (0..config.classes)
            .map(|_| {
                let mut t = init::normal(Shape::d3(c, h, w), 0.0, 1.0, &mut rng);
                for _ in 0..config.smooth_passes {
                    t = smooth(&t);
                }
                normalize(&mut t);
                t
            })
            .collect();
        Self { config, templates }
    }

    /// The configuration used.
    pub fn config(&self) -> &SynthConfig {
        &self.config
    }

    /// The template of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn template(&self, class: usize) -> &Tensor {
        &self.templates[class]
    }

    /// Draws one labelled sample.
    pub fn sample(&self, rng: &mut StdRng) -> (Tensor, usize) {
        let class = rng.gen_range(0..self.config.classes);
        (self.sample_of_class(class, rng), class)
    }

    /// Draws one sample of a specific class.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn sample_of_class(&self, class: usize, rng: &mut StdRng) -> Tensor {
        let (c, h, w) = self.config.dims;
        let gain = 1.0 + rng.gen_range(-self.config.gain_jitter..=self.config.gain_jitter);
        let t = self.config.translate_px as isize;
        let (dy, dx) = if t > 0 { (rng.gen_range(-t..=t), rng.gen_range(-t..=t)) } else { (0, 0) };
        let template = &self.templates[class];
        let mut out = Tensor::zeros(Shape::d3(c, h, w));
        {
            let src = template.as_slice();
            let dst = out.as_mut_slice();
            for ch in 0..c {
                for y in 0..h {
                    let sy = y as isize - dy;
                    for x in 0..w {
                        let sx = x as isize - dx;
                        let v = if sy >= 0 && (sy as usize) < h && sx >= 0 && (sx as usize) < w {
                            src[(ch * h + sy as usize) * w + sx as usize]
                        } else {
                            0.0
                        };
                        dst[(ch * h + y) * w + x] = gain * v;
                    }
                }
            }
        }
        if self.config.noise_sigma > 0.0 {
            let noise = init::normal(Shape::d3(c, h, w), 0.0, self.config.noise_sigma, rng);
            lts_tensor::ops::axpy(1.0, &noise, &mut out).expect("same shape by construction");
        }
        // Per-sample standardization (zero mean, unit RMS) — the usual
        // dataset preprocessing; keeps activation scales sane regardless
        // of the configured noise level.
        let mean = lts_tensor::stats::mean(out.as_slice());
        out.map_inplace(|v| v - mean);
        let rms = lts_tensor::stats::rms(out.as_slice());
        if rms > 0.0 {
            lts_tensor::ops::scale(1.0 / rms, &mut out);
        }
        out
    }

    /// Generates a balanced dataset of `n` samples (classes round-robin,
    /// then shuffled by the caller if desired).
    pub fn dataset(&self, n: usize, rng: &mut StdRng) -> Dataset {
        let _probe = lts_obs::span("datasets.synth_dataset");
        let (c, h, w) = self.config.dims;
        let sample_len = c * h * w;
        let mut data = Vec::with_capacity(n * sample_len);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % self.config.classes;
            let img = self.sample_of_class(class, rng);
            data.extend_from_slice(img.as_slice());
            labels.push(class);
        }
        Dataset::new(
            Tensor::from_vec(Shape::d4(n, c, h, w), data).expect("sized by construction"),
            labels,
        )
    }

    /// Generates a train/test pair (`n_train` + `n_test` samples).
    pub fn train_test(&self, n_train: usize, n_test: usize, rng: &mut StdRng) -> TrainTest {
        TrainTest { train: self.dataset(n_train, rng), test: self.dataset(n_test, rng) }
    }
}

/// One 3×3 box-blur pass per channel (reflecting edges by clamping).
fn smooth(t: &Tensor) -> Tensor {
    let dims = t.shape().dims();
    let (c, h, w) = (dims[0], dims[1], dims[2]);
    let src = t.as_slice();
    let mut out = Tensor::zeros(t.shape().clone());
    let dst = out.as_mut_slice();
    for ch in 0..c {
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0.0;
                let mut cnt = 0.0;
                for oy in -1isize..=1 {
                    for ox in -1isize..=1 {
                        let sy = (y as isize + oy).clamp(0, h as isize - 1) as usize;
                        let sx = (x as isize + ox).clamp(0, w as isize - 1) as usize;
                        acc += src[(ch * h + sy) * w + sx];
                        cnt += 1.0;
                    }
                }
                dst[(ch * h + y) * w + x] = acc / cnt;
            }
        }
    }
    out
}

/// Scales a template to unit RMS so task difficulty is set purely by the
/// noise sigma.
fn normalize(t: &mut Tensor) {
    let rms = lts_tensor::stats::rms(t.as_slice());
    if rms > 0.0 {
        lts_tensor::ops::scale(1.0 / rms, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(noise: f32) -> SynthGenerator {
        let config = SynthConfig {
            dims: (1, 8, 8),
            classes: 4,
            noise_sigma: noise,
            gain_jitter: 0.0,
            translate_px: 0,
            smooth_passes: 1,
        };
        SynthGenerator::new(config, 42)
    }

    #[test]
    fn templates_are_deterministic_and_distinct() {
        let a = gen(0.0);
        let b = gen(0.0);
        assert_eq!(a.template(0), b.template(0));
        assert_ne!(a.template(0), a.template(1));
    }

    #[test]
    fn noiseless_sample_is_standardized_template() {
        let g = gen(0.0);
        let mut rng = init::rng(1);
        let s = g.sample_of_class(2, &mut rng);
        // Standardization: zero mean, unit RMS.
        assert!(lts_tensor::stats::mean(s.as_slice()).abs() < 1e-5);
        assert!((lts_tensor::stats::rms(s.as_slice()) - 1.0).abs() < 1e-4);
        // Perfectly correlated with the template (same direction after
        // centering).
        let t = g.template(2);
        let t_mean = lts_tensor::stats::mean(t.as_slice());
        let dot: f32 = s.as_slice().iter().zip(t.as_slice()).map(|(&a, &b)| a * (b - t_mean)).sum();
        let norm = lts_tensor::stats::l2_norm(s.as_slice())
            * lts_tensor::stats::l2_norm(
                &t.as_slice().iter().map(|&v| v - t_mean).collect::<Vec<_>>(),
            );
        assert!(dot / norm > 0.999, "correlation {}", dot / norm);
    }

    #[test]
    fn templates_have_unit_rms() {
        let g = gen(0.0);
        let rms = lts_tensor::stats::rms(g.template(0).as_slice());
        assert!((rms - 1.0).abs() < 1e-4);
    }

    #[test]
    fn dataset_is_balanced_round_robin() {
        let g = gen(0.5);
        let mut rng = init::rng(2);
        let d = g.dataset(8, &mut rng);
        assert_eq!(d.labels, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(d.images.shape().dims(), &[8, 1, 8, 8]);
    }

    #[test]
    fn nearest_template_classifies_low_noise_samples() {
        // With modest noise the nearest-template rule must beat chance by a
        // wide margin — this is what makes the task learnable.
        let g = gen(0.4);
        let mut rng = init::rng(3);
        let d = g.dataset(80, &mut rng);
        let mut correct = 0;
        for i in 0..80 {
            let img = d.images.image(i);
            let mut best = (f32::INFINITY, 0usize);
            for cls in 0..4 {
                let diff = lts_tensor::ops::sub(&img, g.template(cls)).unwrap();
                let dist = lts_tensor::stats::l2_norm(diff.as_slice());
                if dist < best.0 {
                    best = (dist, cls);
                }
            }
            if best.1 == d.labels[i] {
                correct += 1;
            }
        }
        assert!(correct > 70, "nearest-template got {correct}/80");
    }

    #[test]
    fn translation_moves_content() {
        let config = SynthConfig {
            dims: (1, 8, 8),
            classes: 1,
            noise_sigma: 0.0,
            gain_jitter: 0.0,
            translate_px: 2,
            smooth_passes: 0,
        };
        let g = SynthGenerator::new(config, 7);
        let mut rng = init::rng(0);
        // Across several draws at least one must differ from the template.
        let template = g.template(0).clone();
        let moved = (0..10).any(|_| g.sample_of_class(0, &mut rng) != template);
        assert!(moved);
    }

    #[test]
    fn train_test_sizes() {
        let g = gen(0.2);
        let mut rng = init::rng(5);
        let tt = g.train_test(12, 6, &mut rng);
        assert_eq!(tt.train.len(), 12);
        assert_eq!(tt.test.len(), 6);
    }

    #[test]
    fn same_seed_and_rng_give_the_same_dataset() {
        let a = gen(0.7).dataset(6, &mut init::rng(9));
        let b = gen(0.7).dataset(6, &mut init::rng(9));
        assert_eq!(a, b);
        let c = gen(0.7).dataset(6, &mut init::rng(10));
        assert_ne!(a.images, c.images);
        assert_eq!(a.labels, c.labels, "labels are round-robin, not drawn");
    }

    #[test]
    fn every_sample_is_standardized_under_noise_and_jitter() {
        let g = SynthGenerator::new(SynthConfig::hard((3, 6, 6), 5), 11);
        let mut rng = init::rng(4);
        for _ in 0..10 {
            let (img, class) = g.sample(&mut rng);
            assert!(class < 5);
            assert_eq!(img.shape().dims(), &[3, 6, 6]);
            assert!(lts_tensor::stats::mean(img.as_slice()).abs() < 1e-5);
            assert!((lts_tensor::stats::rms(img.as_slice()) - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn hard_tasks_are_noisier_than_easy_ones() {
        let easy = SynthConfig::easy((1, 8, 8), 10);
        let hard = SynthConfig::hard((1, 8, 8), 10);
        assert!(hard.noise_sigma > easy.noise_sigma);
        assert!(hard.gain_jitter > easy.gain_jitter);
        assert!(hard.translate_px > easy.translate_px);
        assert_eq!((hard.dims, hard.classes), (easy.dims, easy.classes));
    }

    #[test]
    fn smoothing_keeps_constants_and_lowers_variation() {
        let flat = Tensor::full(Shape::d3(1, 4, 4), 3.0);
        assert_eq!(smooth(&flat), flat);
        let mut rng = init::rng(8);
        let rough = init::normal(Shape::d3(2, 8, 8), 0.0, 1.0, &mut rng);
        let smoothed = smooth(&rough);
        let spread = |t: &Tensor| {
            let m = lts_tensor::stats::mean(t.as_slice());
            lts_tensor::stats::rms(&t.as_slice().iter().map(|v| v - m).collect::<Vec<_>>())
        };
        assert!(spread(&smoothed) < spread(&rough));
    }

    #[test]
    #[should_panic(expected = "need at least one class")]
    fn zero_classes_panics() {
        SynthGenerator::new(SynthConfig::easy((1, 4, 4), 0), 0);
    }

    #[test]
    #[should_panic(expected = "image must have pixels")]
    fn pixelless_images_panic() {
        SynthGenerator::new(SynthConfig::easy((1, 0, 4), 2), 0);
    }
}
