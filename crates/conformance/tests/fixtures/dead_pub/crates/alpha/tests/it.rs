use fedprox_alpha::wire;

#[test]
fn reaches_the_library() {
    fedprox_alpha::from_test();
    wire::encode();
}
