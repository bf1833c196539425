#[test]
fn circuit_fabric_conforms() {
    run_conformance(FabricKind::Circuit);
}

#[test]
fn packet_fabric_conforms() {
    run_conformance(FabricKind::Packet);
}

#[test]
fn packet_words_are_honoured() {
    let _ = Deployment::builder(&graph()).packet_words(4).build();
}
