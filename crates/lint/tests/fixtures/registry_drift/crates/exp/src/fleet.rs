// Mini fleet: a library caller of `.chiplets(`; `.packet_words(` appears
// only in its test module, which does not count.
pub fn tenant(graph: &TaskGraph) -> Deployment {
    Deployment::builder(graph).chiplets(2, 2).build().unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tiny_packets() {
        let _ = Deployment::builder(&graph()).packet_words(1).build();
    }
}
