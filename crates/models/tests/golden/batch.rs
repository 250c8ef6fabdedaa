// Batch-reduction bit patterns captured from the chunked reductions as they
// stood before the batch paths were collapsed (see ../batch_golden.rs for
// how to regenerate).
const GOLDEN_QUAD_GRAD: [u64; 3] = [
    0xc004e0daaa958d7c, 0xbffdfbd6e8ba16f2, 0x3fcec2a3b7d1f4b8,
];
const GOLDEN_LOGISTIC_GRAD: [u64; 12] = [
    0xbfa9b645ec34cd60, 0xbfa8e5e29738a3db, 0x3f78e390a25712f0, 0x3f60f883aefa5315,
    0xbf778a8eaaee7a80, 0x3f55b62c754dcc78, 0x3f6c136ed079a8a8, 0x3f960ff1bc74ce06,
    0x3f70a54022379bfe, 0x3fb4a72ec2ff98a5, 0xbf878c7457ca2ef0, 0xbfb1b5a0380652c7,
];
const GOLDEN_MLP_GRAD: [u64; 31] = [
    0xbf72fcfb94b5da3d, 0xbf6bac3ed4b841e6, 0x3f5c18ae6ccd6353, 0xbf8ea6b3949ff050,
    0xbfa467c084c15b51, 0x3f6e5cb0c9a04697, 0xbf9b44769b1595b0, 0xbf51a60fac2fefa8,
    0x3f60dac95f72a328, 0x3f59506fa93853be, 0xbf55b0d7eaa8e2ab, 0xbf6f1b18c2d856a0,
    0x3f43a97b94bc08d8, 0x3f9c38e174f1500e, 0x3f9a9c8d4991c998, 0x0000000000000000,
    0xbf91fe40e9289007, 0xbf86c13c57750ca6, 0xbf83304034a2bbbe, 0xbf6c97924780819d,
    0x3f9b630a0a6efba7, 0x3f9a0f3866cc6131, 0x3f87a28aa4ccf738, 0xbf61e566203ded77,
    0xbf805a0078ccd6ba, 0xbf8b3e76aa197a34, 0x3f5dfdd95df8bc50, 0xbf3ebbeb1b841dc3,
    0xbfa6184ebc681be4, 0x3fb75748411639a8, 0xbfa89641c5c4576f,
];
const GOLDEN_CNN_GRAD: [u64; 67] = [
    0xbf44e792bdd6db20, 0x3f9f5e14a984fae8, 0xbf7ec43ab2b1d015, 0xbfa5be76281b517a,
    0x3f7937b6d7ca2d82, 0x3f886795c62ce24f, 0x3f8e7bd1197a139d, 0xbf7d875395788ad7,
    0x3f9ebbbc878fc6ce, 0xbf8989bdedad5574, 0x3f7c7adc2e653621, 0x3f61406d3d0a438c,
    0x3f814628fd937cfe, 0xbf984667b25a1446, 0xbf7422c054ed2d53, 0x3f80a43569acc114,
    0xbf794fa0af7b3784, 0xbf9971748067a2ee, 0x3fa15e8396e33c2b, 0xbf95c3c2c23c49dc,
    0x3f9ee5715d363240, 0x3f9ffc23630a6138, 0x0000000000000000, 0x3f9cd906710e8356,
    0x3f84db0232b39f4a, 0xbf604d01d7c9975d, 0xbf6b5ac2bc57e866, 0xbf7c3f7896104d1e,
    0xbf6145cfd73319d7, 0x3f8a13ced3189eb1, 0x3f905d009e6e2ffb, 0x0000000000000000,
    0x3f974d9193d2385c, 0x3f86ed0964291b47, 0xbf5c3b531d4f07f5, 0xbf6862a1e3a71b2f,
    0xbf7d50ee4ee1df72, 0xbf5b912fb2a1a4ac, 0x3fb2009b5ab64ac4, 0x3fb406eb81918f0e,
    0x3f8c1ea15229edb7, 0x3fa38f533b6f2e34, 0x3fa6ba3ea305f8d1, 0x3f8e0d55e092388e,
    0xbf88412aa399fdf6, 0x3f68aba3efa74678, 0x0000000000000000, 0x3fa05d56be91ede6,
    0x3fa40fb921bb6956, 0x3f8811a40a1fd70e, 0x3f9b6ee029ddd0f4, 0x3f9fd6276292df06,
    0x3f8185bf3123412f, 0xbf9dd8fc90333980, 0xbf7260bb4a3e7f62, 0x0000000000000000,
    0x3f8ca2e1605529fb, 0x3fa233056eb34eb5, 0xbfa9f0f89d42680c, 0xbf9836a31b1c724e,
    0xbfbc874d59c21bd5, 0xbf93377acd097871, 0x3fc4bfe4d431a7ed, 0x3fa5b70ef412f560,
    0xbf99e081bde9df50, 0xbfb6a0fddcfb17d8, 0x3fbd191e4c758fab,
];
const GOLDEN_LOSSES: [u64; 3] = [
    0x400b72cd53f1de6a, 0x3ff1fc40affddb32, 0x3ff219ed4643fd7c,
];
