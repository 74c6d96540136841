module moqo/benchmark

go 1.24

require moqo v0.0.0

replace moqo => ../
