// Mini deployment builder: the chiplet grid is consulted on both paths,
// and every knob has a library caller (crates/exp/src/fleet.rs).
impl DeploymentBuilder {
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
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
        if let Some((cw, ch)) = self.chiplets {
            return self.build_chiplet_parts(cw, ch);
        }
        self.build_flat()
    }
}
