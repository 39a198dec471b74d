package main

// attackPin is the attack-e2e outcome of the fixed quickstart
// configuration, recorded on linux/amd64 with the AVX2/FMA kernels. A
// build that changes float accumulation order changes these digests;
// re-pin them only together with an explanation of why the numbers
// moved.
var attackPin = struct {
	PublicDigest string // sha256 of the public outcome (see outcome)
	CorruptedSHA string // sha256 of the corrupted weight file
}{
	PublicDigest: "870a30b52a4900b6e5f7e1e11ce6dc8bbbd14bfeb8c01b14933aad315ef0733e",
	CorruptedSHA: "330a0053d31632b9b954d36071fcc0e28972a3b98a59148b8216ceb7d2d0158e",
}
