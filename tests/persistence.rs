//! Integration: saving a sparsified network and reloading it must
//! preserve the deployment artifact exactly — accuracy, zero structure,
//! and the traffic plan derived from it.

use learn_to_scale::core::pipeline::{plan_for, train_sparsified, PipelineConfig};
use learn_to_scale::core::strategy::SparsityScheme;
use learn_to_scale::datasets::presets::synth_mnist;
use learn_to_scale::nn::models;
use learn_to_scale::nn::prune::PruneCriterion;
use learn_to_scale::nn::saved::SavedNetwork;
use learn_to_scale::nn::trainer::TrainConfig;

#[test]
fn saved_sparsified_network_reproduces_plan_and_predictions() {
    let data = synth_mnist(160, 64, 13);
    let config = PipelineConfig {
        train: TrainConfig { epochs: 3, batch_size: 32, lr: 0.06, ..TrainConfig::default() },
        fine_tune_epochs: 1,
        ..PipelineConfig::default()
    };
    let outcome = train_sparsified(
        models::mlp(28 * 28, 10, 13).expect("mlp"),
        &data,
        &config,
        16,
        SparsityScheme::mask(),
        2.0,
        PruneCriterion::RmsBelowRelative(0.35),
    )
    .expect("pipeline");

    // Round-trip through JSON.
    let json = SavedNetwork::from_network(&outcome.network)
        .expect("capture")
        .to_json()
        .expect("serialize");
    let restored = SavedNetwork::from_json(&json).expect("parse").into_network().expect("rebuild");

    // Identical predictions on the test set.
    let p1 = outcome.network.predict(&data.test.images).expect("predict");
    let p2 = restored.predict(&data.test.images).expect("predict");
    assert_eq!(p1, p2);

    // Identical sparsity-aware traffic plans.
    let plan1 = plan_for(&outcome.network, 16, true, true).expect("plan");
    let plan2 = plan_for(&restored, 16, true, true).expect("plan");
    assert_eq!(plan1.total_traffic_bytes(), plan2.total_traffic_bytes());
    assert_eq!(plan1.traffic_by_layer(), plan2.traffic_by_layer());

    // Pruned structure survived (some groups are actually zero).
    let pruned_groups: usize = outcome.prune_reports.iter().map(|(_, r)| r.groups_pruned).sum();
    assert!(pruned_groups > 0, "test is vacuous without pruning");
}
