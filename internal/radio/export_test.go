package radio

// CheckHearers and CheckBusy expose the oracle checks to the external
// world tests.
var (
	CheckHearers = checkHearers
	CheckBusy    = checkBusy
)
