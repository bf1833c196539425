// Mini fleet: the library caller of every builder knob.
pub fn tenant(graph: &TaskGraph) -> Deployment {
    Deployment::builder(graph).seed(7).chiplets(2, 2).build().unwrap()
}
