package experiments

import "testing"

// The reports that read the MNO or SMIP dataset — t2, fig5–fig10,
// fig11, fig12, t3, abl-classifier, ext-revenue and ext-transparency —
// pinned by the SHA-256 of Report.String() at seeds 1–3 × scale 0.05.
// The constants were taken at commit 7b02a4e, when the session still
// cached both datasets and every runner read Catalog.Records itself;
// the session now runs those record loops once at build time and
// keeps only their outputs, and must land on the same bytes.
func TestMNOSMIPReportDigests(t *testing.T) {
	want := map[uint64]map[string]string{
		1: {
			"t2":               "2a13df1634fd00bd5e89bc9499b287a8b7ad4c6c0e38335ef7910ddd995c3517",
			"fig5":             "7871a8271c7aa2ce4f54c2b38541f94d8bf214fd32512ce963c8c6b9ed56307c",
			"fig6":             "929b0c3303e58c04c749d5d5aef264d89585a31bf4ae97aed56b1db11cdc8abe",
			"fig7":             "a23fcc14a90c393a2fec2fa47087719baf14b3d509a629289568efa5f61e970a",
			"fig8":             "71734301fb2532c0389042bb75b9dc7f430f3cd275d159ee5500663a5fa986ad",
			"fig9":             "e3f8e568082d2f879543c8cb8257d17a6ff3c66e88d2d6758a33071f05aa3b9f",
			"fig10":            "955ee6bdfc31410565817d55cc2166fb9888e0f2fc686a51d0cb89168752cc7f",
			"fig11":            "e5254568b7e5c497684f8213b8515614da9b576d693eaf5d8a679b3701e672f0",
			"fig12":            "05dbfd2ac01051c9d3a25260989703c6c65a0eaf7534322fa207a77b8d2eb4d4",
			"t3":               "78510f22e76f86e6ccf1e14e817ab4c2fb99e63c92edde935d8f413434586ad3",
			"abl-classifier":   "dc0aec7faf9fdd0c61c47e7ce7fa9403c77cd9cc02366d19efb967917390e259",
			"ext-revenue":      "5755a83e4550c4dbe00ef7e185aff75b772401f83cc191d43f8c14204a1e30c6",
			"ext-transparency": "f588f79dbceba3b10cf41241aee99aa3a5039e1a7f12abf368b47e9f4ddd127d",
		},
		2: {
			"t2":               "20ed8a1320d30a04e2189a1aacdeb800347de1282409f150d19bcdc16d2965fd",
			"fig5":             "97bd3cce67533f0374cbc61d8b23ebed4df6e4883c83247748934f4e77ec2302",
			"fig6":             "458d639935027ca685b9c144a6185c1759c5eb8bd566f645baeee0f3790c3ac8",
			"fig7":             "dbab4cc12a15a09b05f1aa05a90e36d8c940fe9041489daf8d99fe38ef68c3a0",
			"fig8":             "861d8d6c66f1735c1c5c09138a1f297c63572e36817e0e720eceef6c9754c3ab",
			"fig9":             "d4e76d40c603880def9dc967bd55f37c25df6453f0b10d8a58731969bdee020f",
			"fig10":            "b150793211fddaafe1d5927282e727e359b4566b4176eee6d26757bd649c1c8d",
			"fig11":            "5db5dccc62df2954280b5684c20f13c8ca14d951889cee6f2c52b6d0c1335204",
			"fig12":            "4e032d5856df3046382d12ff2dce498208aaec3b8df973c78347103d41518dc3",
			"t3":               "2ac96442b573224ad4742ea553f9a3fc6fb44a5fd5a524851db9d61f5c8f7d1d",
			"abl-classifier":   "78ee8f771755b906ea9337ce1e5989cf14d160c9e2d493e2a06971efce00dc10",
			"ext-revenue":      "9457e5d47c8935344b1385fdb4c06874533453246a247988244bae7e96f43fc1",
			"ext-transparency": "ebaa015c34d1357bc424e99712129111420adc614b48d5826e9cc2864267b0d1",
		},
		3: {
			"t2":               "19fe5ab6dd0a9b393121bf140086aa1abb01c2fb81a08ef91b0abef0e14c4493",
			"fig5":             "7cebb4a325e8f30f42a96248484573cd6255cad898d1a4cc6437ed80b78b0b19",
			"fig6":             "1a86c78a11667d4be84b6874f1b1606b6238e63d2d211397beea74e3a469bc62",
			"fig7":             "3ba85b4429a6e212303994fd1ab55bf3c9bddf1e658c9dfabb97cda8f1f030d7",
			"fig8":             "a7ef1835359ebd6a30eb4c917bdde4ab68abdcb1a09912f9500b264995aa3871",
			"fig9":             "957a9d2b584e3c0a9a0cd34dd77a145556c535ddcbe593d876312f6229acbf17",
			"fig10":            "02a7bee4dff1c316f8d7ddcd32ef48d1326be4951d95e56c431c1a7d51b3b858",
			"fig11":            "5476aa774cbc91f3151d7e32f04dc146dfd53cb18291cbb360613ec57cce44d3",
			"fig12":            "4eb5c0c7e74af0d5c9bc769243e3a8ad8d4c4744a352865187cdee95b34b2496",
			"t3":               "05012f10b811701485cf1898a53e51530ce308e91f3ae0875071c81a5bfd2f7b",
			"abl-classifier":   "c67c743be0f4fc08392bd1fe69ab20e0da89809a8a6fc20ae97f64951bea06ca",
			"ext-revenue":      "34fde87e7781e8e3391b5dd28420ff6428d5dd953859e71e085d7a06d8017b4d",
			"ext-transparency": "66e2b90fd2fbb62117e3535599d9fd4d401238511a5afd7a1fb139532104fb07",
		},
	}
	checkDigests(t, want)
}
