fn main() {
    fedprox_alpha::from_bench();
    fedprox_alpha::fire!();
}
