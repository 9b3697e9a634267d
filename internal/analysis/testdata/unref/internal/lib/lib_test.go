package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 1 {
		t.Fatal("TestOnly")
	}
}

func TestTestHelper(t *testing.T) {
	if testHelper() != 4 || (&counter{testRead: 5}).testRead != 5 {
		t.Fatal("testHelper")
	}
}
