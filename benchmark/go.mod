module espresso/benchmark

go 1.22

require espresso v0.0.0

replace espresso => ../
