fn main() {
    fedprox_alpha::from_example();
}
