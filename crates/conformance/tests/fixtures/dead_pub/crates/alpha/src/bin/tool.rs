fn main() {
    fedprox_alpha::from_bin();
    let _: Option<u32> = Some(1).map(fedprox_alpha::by_reference);
}
