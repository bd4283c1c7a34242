//! Defaults are code, not environment.
//!
//! Exporting a variable in a shell must not silently change which
//! pipeline `Server::spawn` or a `..Default::default()` configuration
//! exercises: shard count, scoring pipeline and FHT schedule are chosen
//! only through their struct fields.  This lives alone in its own test
//! binary (its own process) because it mutates the process-wide
//! environment.

use disthd::DistHdConfig;
use disthd_hd::encoder::StructuredRbfEncoder;
use disthd_linalg::{FhtSchedule, RngSeed};
use disthd_serve::ServerOptions;

#[test]
fn defaults_ignore_serving_and_schedule_environment_variables() {
    std::env::set_var("DISTHD_SERVE_SHARDS", "4");
    std::env::set_var("DISTHD_SERVE_INT", "1");
    std::env::set_var("DISTHD_FHT_SCHEDULE", "cascading-haar");

    let options = ServerOptions::default();
    assert_eq!(options.shards, 1);
    assert!(!options.integer_pipeline);
    assert_eq!(ServerOptions::sharded(2).shards, 2);
    assert!(!ServerOptions::sharded(2).integer_pipeline);

    assert_eq!(DistHdConfig::default().fht_schedule, FhtSchedule::Ascending);

    let encoder = StructuredRbfEncoder::new(6, 100, RngSeed(17));
    assert_eq!(encoder.fht_schedule(), FhtSchedule::Ascending);
    let rebuilt = StructuredRbfEncoder::from_parts(
        6,
        100,
        encoder.base_std(),
        encoder.block_dim(),
        &encoder.packed_signs(),
        encoder.phases().to_vec(),
        Vec::new(),
    )
    .unwrap();
    assert_eq!(rebuilt.fht_schedule(), FhtSchedule::Ascending);
}
