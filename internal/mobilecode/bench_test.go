package mobilecode

import "testing"

func BenchmarkVMFibLoop(b *testing.B) {
	p, err := Assemble("fib", fibSrc)
	if err != nil {
		b.Fatal(err)
	}
	vm := newVM(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := vm.Run(p, "main", 90)
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Top()
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	p, err := Assemble("fib", fibSrc)
	if err != nil {
		b.Fatal(err)
	}
	data, err := Encode(p)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAssemble(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Assemble("fib", fibSrc); err != nil {
			b.Fatal(err)
		}
	}
}
