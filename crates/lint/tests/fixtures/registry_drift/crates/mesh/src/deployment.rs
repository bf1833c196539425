// Drifted deployment builder: the knob exists but `build_controlled`
// silently deploys a flat fabric — exactly the drift D6 must catch. And
// `packet_words` is set only by tests, never by a library or tool file.
impl DeploymentBuilder {
    pub fn packet_words(mut self, words: usize) -> Self {
        self.packet_words = words;
        self
    }

    pub fn chiplets(mut self, cw: usize, ch: usize) -> Self {
        self.chiplets = Some((cw, ch));
        self
    }

    pub fn build(self) -> Result<Deployment, DeployError> {
        if let Some((cw, ch)) = self.chiplets {
            return self.build_chiplet_parts(cw, ch);
        }
        self.build_flat()
    }

    pub fn build_controlled(self) -> Result<Deployment, DeployError> {
        self.build_flat()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn packet_words_knob() {
        let _ = builder().packet_words(0);
    }
}
