//! The `'5'` body in its `'4'` container, frozen byte for byte.
//!
//! Round trips pass whenever the writer and the reader change together, so
//! they cannot pin the layout.  Two small artifacts are committed here as
//! hex: a dense deployment (3 features, D = 64, 3 classes at 2 bits, two
//! regenerated dims, no serving tasks) and a structured one (4 features,
//! D = 64, 4 classes at 8 bits, three dims regenerated into a reserve
//! block that keeps one free lane, a top-k task and an anomaly threshold).
//! Each must load, re-save to exactly the committed bytes, and answer six
//! fixed queries with the recorded classes.
//!
//! The byte assertions hold on every host.  The recorded classes hold on
//! FMA hosts, as CI's are: the GEMM kernels choose fused multiply-add or
//! mul-then-add at run time, so a host without FMA may score the last bits
//! differently (the smallest recorded margin between the best and the
//! second class is 0.07).

use disthd::io::{load_deployed, save_deployed};
use disthd::{DeployedModel, ServingTasks};
use disthd_hd::encoder::Encoder;
use disthd_linalg::Matrix;

/// A dense deployment written by `save_deployed`.
const DENSE: &str = "\
    44484434350003000000400000000300000002000000d8b3dd3f0c17a7bea29b9ebffcfe05c0b656f3be58b32f40aa35\
    8640ec6b0b408c9e82bfbcf1753f1af913bfd7c7f03ed001b83fe6ca5ec0d63d86bfc153163f635a823e47042b3f43ce\
    dabef3fdabbe0186843fdaee993fb6a890bfc19089bf70dc93bf694d36bea31a90bfb41303403640df3dbe11e53fbaf3\
    b43f121caa3fa8e52bc0cfef08bf43f2a13f29793c405cd93cbe5a991ec03d732b40969b523f2532acbfbb4e35c0feb5\
    363ee0a47a3c8a732ac0eb7568beac72303fd93f94bccce72abfd4edbabefcd104bf81b0aec0221a1b3f7a62543f48c2\
    1f40622c2e3f0e973340961edc3f09c0633fad0307bfa290473f7d0dc03f06276c3fe3d9db3f1a24bcbf1d31913f9e79\
    3140d64b703f359bedbe47e8943f03ecdd3f74fc0dbf88e87a3f8d9c2840d1e91c40e6fe39bed7ed36c0b4037f3fbc53\
    2fbe0ee1ccbfa63549c08b38aebf3889414043052d3fd10e8dbce0e55abca729ebbffda23b3cbdfdbabf458551401243\
    973d7914fabefd619a3f6702b33f1783e63faf17c2bfd25534be3f7b91c038b5f63f9d2b3dc04d296e3f61fc393fb8b1\
    73405ba73e401773c43e1b2b56bf752891bf53dda93f0a2689c0ea7935c06a37b0bf432ddfbea4299a3e5815a740c2dd\
    8c3fb7de443eafe0a7c061220740f6c9233f530e313f69230b4030a712bf887016c036d09fbf81d41b3f7554e6bf348f\
    523f59099cbe59982fbe54146d3fd3d7403fe2c576bf7e25edbf712139bf28b13fbeaab29b3de3b92cbf86c09b3e2c25\
    04c0453e4dbfa440404081e76ebf97bb883fe005bbbf33b6a0bf2f070cc0d4fa8e40d06bc83f104b6fc04b35ce3fbfd7\
    2a40db5e7ebf08e7febd9416403fd0e3adbeb1ccc2bfc08e43bf3a972fc014ece43faf8c7f3f6e2fe73f4c43db3f3c60\
    a4bfb89506c079100fc0390ed73d9f838f3fe4e18ebe432733bfffc828c018c83dc0b3b2fd3c836e8a401b38d43f4709\
    2040e9f19bbf5f99893f7b9b72bf1bfe39c079a4473ffd063bbdd7c62c3f4e154740734a71bf16cddb3f42da5540dcd0\
    87408b1d73bfb1aa98c0a6f2a2bf5006423fdabb38402724843f58c2823ff766093f7961ac40bb4f89407173b7408266\
    773e95fa893f3078a73e47718e3fbd4b624027ac563fcf62bb40f70c974021b4c340565cc340b0ca0d4077d5233feca1\
    8a3ff6c695400a2e27404c128e40266b2d3fda153b408b3b3640ac197a401b8c994075ab814005b9d03f7e56c2400f5d\
    003e82220540e6c77d40bf7f6740de0d8f400e8b9840fc08164058f215401745bf40d70dc840780678403cc3a1403d94\
    a540e064a240a75d5740109a413f43089340b83788409b7361403592a9406a7dbe40ee3ab83ffb2eaf40439b443e9d03\
    01406c4a4b3f6616c53f2994c140a0bbaa40c7e8b440c97b97403e01ac40db8f6e40f2a8fa3fa394513f8fc2f53c4f46\
    f43c28d6ef3cd67fe83c0d5ade3c3484d13c0426c23c096fb03c15969c3c94d8863c98f35e3c1d842d3c6af7f33b9ef3\
    893b7827723ad68e1bbb15e3b8bb4fe110bcc09043bc01e373bc4aa190bc8491a5bc6681b8bc5336c9bc9b7cd7bc1428\
    e3bc9b14ecbc9a26f2bc424bf5bcdc78f5bcdbaef2bcdff5ecbc9f5fe4bcac06d9bc240ecbbc43a1babcdaf2a7bcba3c\
    93bc037e79bc797e49bc6a0f17bcea99c5bbd46235bbdf7d0a3aa0367a3ba263e73b0670273c1728593c1020843c3f13\
    9a3ca629ae3c1a25c03cf4cdcf3cc7f3dc3cdd6de73ccc1bef3ccfe5f33c17bdf53cf09bf43cda85f03c7787e93c6eb6\
    df3c1e31d33c4b1ec43cc184753f54d1713f5a7c713f06000000a91640a91640a91640a91640a91640a91640a90640aa\
    0550aa0550aa0550aa0550aa0550aa0550aa01906a01946a01940000000052eb0ccaa253a639";

/// A structured deployment with live reserve lanes and both serving tasks,
/// written by `save_deployed`.
const STRUCTURED: &str = "\
    444844343501040000004000000004000000080000000000c03f040000000100000012404e54898f84b2a1f021f7e9dd\
    5fbccf8438f4fce4e06c5f08000000000000a569c33e6608113ff622bb40b74f6b40ad024f409b113140d0e93e40a2d6\
    ad404bf4c84013fd1740adfa4d3f2eceb43fa7eda840416e803ffdc7c74009ce9840dfc60d40cb642d3fd3a566409ed2\
    8340bb8da54004c23640daab83403f12d13fb6cc853f8d6f1c3eb4d3644005a2c340870ac040349e2040fd409b401571\
    c03f3d99bf408c01074087761040a23b8540f9a54640384583400535ae404505b54092c888407383893ff0f4154040cd\
    a93fc75a9540f8501a40cbf1324096b5c53fc6d444409fb12540d790a440fc4ab84058b2ae40ad510a3d92c8413f88fb\
    99403eed0640b563b83e10df31402c23ba401bf818405349a03df837fd3e5fc59e40020000000900000011000000ffff\
    ffff8fc2f53c4f46f43c28d6ef3cd67fe83c0d5ade3c3484d13c0426c23c096fb03c15969c3c94d8863c98f35e3c1d84\
    2d3c6af7f33b9ef3893b7827723ad68e1bbb15e3b8bb4fe110bcc09043bc01e373bc4aa190bc8491a5bc6681b8bc5336\
    c9bc9b7cd7bc1428e3bc9b14ecbc9a26f2bc424bf5bcdc78f5bcdbaef2bcdff5ecbc9f5fe4bcac06d9bc240ecbbc43a1\
    babcdaf2a7bcba3c93bc037e79bc797e49bc6a0f17bcea99c5bbd46235bbdf7d0a3aa0367a3ba263e73b0670273c1728\
    593c1020843c3f139a3ca629ae3c1a25c03cf4cdcf3cc7f3dc3cdd6de73ccc1bef3ccfe5f33c17bdf53cf09bf43cda85\
    f03c7787e93c6eb6df3c1e31d33c4b1ec43cedfb003cd5ff003cc701013cc401013c200000007fbfeefeebbb7a3b0e00\
    154789c7f2fde6b270330a011b5092cff6fce0a9672b0603215a9cd7f9fad9a05d2404052863a5ddfbf7d296541d0208\
    306dafe4fdf4cb8d4b18000c3776b7e9fef0c383421200114080c0eefeebba793a0d0016488ac8f3fde5b16f3209011c\
    5193d0f6fcdfa8662a0603225a9dd7f9fad99f5c2303062964a6defcf7d195531d0209306eafe4fdf3ca8c4a17000d38\
    77b8eafeefc282411200114081c1effeeab978390d0016498bc9f3fde5b06e3109011c5294d1f7fcdfa7652a0603235b\
    9ed8fafad89e5b2303062a65a7dffcf7d194521c0109316eb0e5fdf3c98b4916000d3978b9eafeefc181401100124182\
    c2effeeab877020000000002000000010000003ec53539625b7c4c5c";

fn bytes(hex: &str) -> Vec<u8> {
    assert!(hex.len().is_multiple_of(2));
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
        .collect()
}

/// Six fixed queries for a model of `n` features.
fn queries(n: usize) -> Matrix {
    Matrix::from_fn(6, n, |r, c| ((r * n + c) as f32 * 0.71 + 0.2).sin())
}

/// Loads `hex`, checks that it re-saves to the same bytes and that the
/// fixed queries land in `classes`, and returns the model.
fn load_exact(hex: &str, classes: &[usize]) -> DeployedModel {
    let committed = bytes(hex);
    let model = load_deployed(committed.as_slice()).expect("the committed artifact loads");
    let mut saved = Vec::new();
    save_deployed(&model, &mut saved).expect("save");
    assert_eq!(saved, committed, "re-saving changed the bytes");
    let queries = queries(model.encoder_parts().input_dim());
    assert_eq!(model.predict_batch(&queries).unwrap(), classes);
    for (r, &class) in classes.iter().enumerate() {
        assert_eq!(model.predict(queries.row(r)).unwrap(), class, "query {r}");
    }
    model
}

#[test]
fn the_committed_dense_artifact_loads_re_saves_and_classifies() {
    let model = load_exact(DENSE, &[0, 1, 0, 0, 1, 0]);
    assert!(model.encoder_parts().as_structured().is_none());
    assert_eq!(model.tasks(), ServingTasks::default());
}

#[test]
fn the_committed_structured_artifact_loads_re_saves_and_classifies() {
    let model = load_exact(STRUCTURED, &[0, 0, 2, 0, 0, 2]);
    let encoder = model.encoder_parts().as_structured().expect("structured");
    assert_eq!(encoder.reserve_lanes(), &[2, 9, 17, u32::MAX]);
    assert_eq!(
        model.tasks(),
        ServingTasks {
            top_k: Some(2),
            anomaly_threshold: Some(0.125),
        }
    );
}
