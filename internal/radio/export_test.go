package radio

// CheckHearers exposes the oracle check to the external world tests.
var CheckHearers = checkHearers
