module gengc/benchmark

go 1.23

require gengc v0.0.0

replace gengc => ../
