fn main() {
    // Hand-maintained kind list: exactly the drift the rule exists to stop.
    for kind in [FabricKind::Circuit, FabricKind::Packet] {
        run(kind);
    }
}
