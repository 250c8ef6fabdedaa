/// Called through its file module by the integration test.
pub fn encode() {}
