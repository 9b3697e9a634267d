package device

import "testing"

func TestUISpecQueries(t *testing.T) {
	ui := LaptopSpec().UI
	if !ui.HasInput("keyboard") || ui.HasInput("voice") {
		t.Fatal("input methods wrong")
	}
}
